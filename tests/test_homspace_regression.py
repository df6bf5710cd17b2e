"""Recorded homspace results that no golden file covers.

``tests/data/homspace_regression.json`` holds, for every catalog entry at
several eta and for closed subalgebras of the standard sl(3) bialgebra, the
full classification row, the multiplicative-unimodularity report (chi_h0
values, the lift x_h0, whether it lies in h, the cocycle solution space
dimension), the semi-invariant solution set and the Lagrangian cross-check.
The test recomputes all of it.  Re-record with

    PYTHONPATH=src python tests/test_homspace_regression.py > tests/data/homspace_regression.json
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from poishom import catalog, homspace, lie, linalg
from poishom.bialgebra import sln_standard_bialgebra

DATA = Path(__file__).resolve().parent / "data" / "homspace_regression.json"
CATALOG_ETAS = (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-5, 2))
SL3_ETAS = (Fraction(1), Fraction(-5, 2))


def sl3_subalgebras(g) -> dict:
    """The Cartan, so(3) and the Borel of upper-triangular matrices in each
    ordering of the basis, on the D/S/Q basis of sl(3)."""

    def vec(entries):
        coords = [0] * g.dim
        for label, c in entries.items():
            coords[g.index(label)] = c
        return g.vector(coords)

    n = 3
    cartan = [vec({f"D{k + 1}": 1}) for k in range(n - 1)]
    subs = {
        "cartan": cartan,
        "so": [vec({f"Q{i + 1}{j + 1}": 1}) for i in range(n) for j in range(i + 1, n)],
    }
    for perm in itertools.permutations(range(n)):
        rows = list(cartan)
        for i in range(n):
            for j in range(i + 1, n):
                a, b = perm[i], perm[j]
                lo, hi = min(a, b), max(a, b)
                sign = 1 if a < b else -1  # E_ab = (S + Q)/2 above, (S - Q)/2 below
                rows.append(vec({f"S{lo + 1}{hi + 1}": 1, f"Q{lo + 1}{hi + 1}": sign}))
        subs["borel-" + "".join(map(str, perm))] = rows
    return subs


def specs():
    """(key, spec) for every recorded input."""
    for eta in CATALOG_ETAS:
        for name in catalog.HOMSPACE_NAMES:
            yield f"catalog|{name}|{eta}", catalog.build_homspace(name, eta)
    for eta in SL3_ETAS:
        B = sln_standard_bialgebra(3, eta)
        for kind, basis in sl3_subalgebras(B.g).items():
            yield f"sl3|{kind}|{eta}", homspace.HomogeneousSpaceSpec(
                f"sl3-{kind}", B, B.g.subalgebra(basis)
            )
    B = catalog.bialgebra("solvable3-structure")
    yield "solvable3|X1+X2+X3", homspace.HomogeneousSpaceSpec(
        "solvable3-diagonal", B, B.g.subalgebra([B.g.vector([1, 1, 1])])
    )


def _coords(v) -> list[str] | None:
    return None if v is None else [str(c) for c in v.coords]


def _or_none(fn, S):
    """fn(S), or None where the quotient is not coisotropic."""
    try:
        return fn(S)
    except ValueError:
        return None


def snapshot(S: homspace.HomogeneousSpaceSpec) -> dict:
    sols = homspace.semi_invariant_solutions(S)
    out = {
        "row": homspace.classification_row(S),
        "semi_invariant": {
            "feasible": sols.feasible,
            "particular": _coords(sols.particular),
            "homogeneous": [_coords(v) for v in sols.homogeneous],
        },
        "report": None,
        "lu_crosscheck": _or_none(homspace.lu_crosscheck, S),
    }
    rep = _or_none(homspace.multiplicative_unimodularity_check, S)
    if rep is not None:
        values, lift = homspace.chi_h0(S)
        assert (values, lift) == (rep.chi_h0, rep.x_h0)
        out["report"] = {
            "chi_h0": [str(c) for c in rep.chi_h0],
            "x_h0": _coords(rep.x_h0),
            "x_h0_in_h": rep.x_h0_in_h,
            "h0_unimodular": rep.h0_unimodular,
            "mu_status": rep.mu_status,
            "mu_witness_theta0": _coords(rep.mu_witness_theta0),
            "cocycle_solution_space_dim": rep.cocycle_solution_space_dim,
        }
    return out


def record() -> dict:
    return {key: snapshot(S) for key, S in specs()}


def test_recorded_results_recomputed():
    want = json.loads(DATA.read_text(encoding="utf-8"))
    kinds = {entry["row"]["subgroup_type"] for entry in want.values()}
    assert kinds == {homspace.PL_SUBGROUP, homspace.COISOTROPIC_ONLY, homspace.NOT_COISOTROPIC}
    got = record()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


@pytest.fixture
def analysis_counts(monkeypatch):
    """Counts of annihilator computations (its int rows, which the Covector
    basis is also read from), of ``RowSpan`` eliminations and lifts, and of
    closure tests on a subalgebra of the dual algebra g* and of the double."""
    keys = ("annihilator", "dual_closure", "double_closure", "eliminated_span", "lift")
    counts = dict.fromkeys(keys, 0)
    annihilator = lie.LieAlgebra.annihilator_rows
    is_closed = lie.Subalgebra.is_closed
    span_init, lift = linalg.RowSpan.__init__, linalg.RowSpan.lift
    watched = {}

    def counted_annihilator(self, h):
        counts["annihilator"] += 1
        return annihilator(self, h)

    def counted_is_closed(self, *args, **kwargs):
        for name in ("dual", "double"):
            if self.parent is watched.get(name):
                counts[f"{name}_closure"] += 1
        return is_closed(self, *args, **kwargs)

    def counted_span(self, rows):
        counts["eliminated_span"] += 1
        span_init(self, rows)

    def counted_lift(self, values):
        counts["lift"] += 1
        return lift(self, values)

    monkeypatch.setattr(lie.LieAlgebra, "annihilator_rows", counted_annihilator)
    monkeypatch.setattr(lie.Subalgebra, "is_closed", counted_is_closed)
    monkeypatch.setattr(linalg.RowSpan, "__init__", counted_span)
    monkeypatch.setattr(linalg.RowSpan, "lift", counted_lift)

    def watch(S):
        watched.update(dual=S.bialgebra.dual, double=S.bialgebra.double)
        counts.update(dict.fromkeys(keys, 0))
        return S

    return counts, watch


def test_classification_row_eliminates_no_span_and_lifts_nothing(analysis_counts):
    """One classification_row reads h0's rows off h's span once, and decides
    coisotropy from delta(h): no span of h0 (or of anything else) is
    eliminated, no closure test runs in g* or in the double, and chi_h0 is
    not lifted to g."""
    counts, watch = analysis_counts
    for name in catalog.HOMSPACE_NAMES:
        row = homspace.classification_row(watch(catalog.build_homspace(name, 1)))
        want = {"annihilator": int(row["coisotropic"]), "dual_closure": 0, "double_closure": 0}
        assert counts == {**want, "eliminated_span": 0, "lift": 0}, name


def test_lu_crosscheck_closes_the_lagrangian_once_in_the_double(analysis_counts):
    """lu_crosscheck re-decides the closure of h0 once, in the double, with
    no closure test in g*, no eliminated span and no lift."""
    counts, watch = analysis_counts
    for name in catalog.HOMSPACE_NAMES:
        assert homspace.lu_crosscheck(watch(catalog.build_homspace(name, 1)))
        want = {"annihilator": 1, "dual_closure": 0, "double_closure": 1}
        assert counts == {**want, "eliminated_span": 0, "lift": 0}, name


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
