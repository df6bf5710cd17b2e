"""Digests of every catalog structure and coordinate model.

``tests/data/catalog_digests.json`` holds, for each structure of
``catalog.STRUCTURES`` at eta in {1, 2, 1/3, -5/2}, the sha256 of the
rational bracket tables of g and of its dual (``_table``, not the int
tables, so the den they are stored over does not enter) and of the terms of
the r-matrix, if the structure has one.  It also holds the sha256 of the
bracket table of each coordinate model at the same etas, once for a model
that fixes its own eta or carries none.  The digests were recorded before
the catalog became one table of algebras and one of structures, so they pin
every table that rewrite had to keep.  Re-record (only for an intended
change of output) with

    PYTHONPATH=src python tests/test_catalog_digests.py > tests/data/catalog_digests.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from poishom import catalog

DATA = Path(__file__).resolve().parent / "data" / "catalog_digests.json"
ETAS = ("1", "2", "1/3", "-5/2")


def _sha(parts) -> str:
    return hashlib.sha256(";".join(parts).encode()).hexdigest()


def structure_digests(B) -> dict:
    """sha256 of g's and the dual's rational tables and of r's terms."""
    out = {}
    for key, L in (("g", B.g), ("dual", B.dual)):
        out[key] = _sha(
            f"{i},{j},{k}:{c}"
            for (i, j), image in sorted(L._table.items())
            for k, c in sorted(image.items())
        )
    r = B.delta.r
    out["r"] = None if r is None else _sha(f"{a},{b}:{c}" for (a, b), c in sorted(r.terms.items()))
    return out


def model_digest(bundle) -> str:
    """sha256 of the model's bracket table, entry by entry in key order."""
    return _sha(f"{key}:{p!r}" for key, p in sorted(bundle.model._table.items()))


def model_keys():
    for name in catalog.MODEL_NAMES:
        if name in catalog.MODELS or catalog.GROUP_MODELS[name].eta is not None:
            yield name, None
        else:
            yield from ((name, eta) for eta in ETAS)


def record(bialgebra, build_model) -> dict:
    """The digests of the structures built by ``bialgebra(name, eta)`` and of
    the models built by ``build_model(name, eta)``."""
    structures = {
        f"{name} eta={eta}": structure_digests(bialgebra(name, eta))
        for name in catalog.STRUCTURES
        for eta in ETAS
    }
    models = {
        name if eta is None else f"{name} eta={eta}": model_digest(
            build_model(name) if eta is None else build_model(name, eta)
        )
        for name, eta in model_keys()
    }
    return {"structures": structures, "models": models}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text(encoding="utf-8"))


@pytest.mark.parametrize("eta", ETAS)
@pytest.mark.parametrize("name", list(catalog.STRUCTURES))
def test_structure_digests(recorded, name, eta):
    B = catalog.bialgebra(name, eta)
    assert structure_digests(B) == recorded["structures"][f"{name} eta={eta}"]


@pytest.mark.parametrize("name,eta", list(model_keys()))
def test_model_digest(recorded, name, eta):
    bundle = catalog.build_model(name) if eta is None else catalog.build_model(name, eta)
    key = name if eta is None else f"{name} eta={eta}"
    assert model_digest(bundle) == recorded["models"][key]


def test_every_recorded_entry_is_checked(recorded):
    assert set(recorded["structures"]) == {f"{n} eta={e}" for n in catalog.STRUCTURES for e in ETAS}
    assert set(recorded["models"]) == {
        n if e is None else f"{n} eta={e}" for n, e in model_keys()
    }


if __name__ == "__main__":
    json.dump(record(catalog.bialgebra, catalog.build_model), sys.stdout, indent=1)
    print()
