"""Digests of the sl(n) standard bialgebra's structure constants.

``tests/data/sln_digests.json`` holds, for n = 2..7 and eta in {1, -5/2, 2/3},
the sha256 of the bracket tables of sl(n) and of its standard dual, written
entry by entry (i < j, then k) with exact rational values.  The dense
construction in ``test_kernel_oracles.py`` is too slow past n = 4, so these
digests are what pin the builder on larger n.  Re-record (only for an
intended change of output) with

    PYTHONPATH=src python tests/test_sln_digests.py > tests/data/sln_digests.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from poishom.bialgebra import sln_standard_bialgebra

DATA = Path(__file__).resolve().parent / "data" / "sln_digests.json"
CASES = [(n, eta) for n in range(2, 8) for eta in ("1", "-5/2", "2/3")]


def tables_digest(n: int, eta: str) -> str:
    B = sln_standard_bialgebra(n, eta)
    parts = []
    for L in (B.g, B.dual):
        for (i, j), image in sorted(L._table.items()):
            parts.extend(f"{i},{j},{k}:{c}" for k, c in sorted(image.items()))
        parts.append("|")
    return hashlib.sha256(";".join(parts).encode()).hexdigest()


@pytest.mark.parametrize("n,eta", CASES)
def test_sln_tables_digest(n, eta):
    recorded = json.loads(DATA.read_text(encoding="utf-8"))
    assert tables_digest(n, eta) == recorded[f"sl{n} eta={eta}"]


if __name__ == "__main__":
    json.dump({f"sl{n} eta={eta}": tables_digest(n, eta) for n, eta in CASES}, sys.stdout, indent=1)
    print()
