"""The semi-invariant and mu solves against full solves of the stacked rows.

``homspace._Analysis`` eliminates the semi-invariant system [closedness; h |
rhs] once, and starts the mu system from its nonzero reduced rows plus the
horizontal-field rows.  Here both answers are compared with the plain path:
``linalg.solve_affine`` on the full stacked rows, then the preference for
chi_g and chi_g/2.  Inputs are every catalog entry at several etas of the
benchmark's pool, and the sl(3)/sl(4) Cartan, so(n) and Borel subalgebras the
benchmark classifies, built from ``perfbench/workloads.py`` (read-only).
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from poishom import catalog, homspace, linalg
from poishom.homspace import HomogeneousSpaceSpec, _Analysis, _mu_rows
from poishom.lie import Covector

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        # its dataclass looks its module up in sys.modules while it is defined
        mp.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
    return module


def full_solve(chi, rows, rhs, degenerate_first):
    """(witness, null basis) from one solve of the full stack: chi_g or
    chi_g/2 when it solves the rows, else the pivot solution."""
    if not rows:
        rows, rhs = [[Fraction(0)] * chi.algebra.dim], [Fraction(0)]
    part, null = linalg.solve_affine(rows, rhs)
    if part is None:
        return None, null
    half = Fraction(1, 2) * chi
    for cand in [half, chi] if degenerate_first else [chi, half]:
        if linalg.mat_vec(rows, list(cand.coords)) == rhs:
            return cand, null
    return Covector(chi.algebra, part), null


def assert_matches_full_solves(S):
    """Both solves of one pair agree with the full ones; returns whether the
    semi-invariant system was consistent."""
    A = _Analysis(S)
    rows, rhs = A.semi_rows
    assert A.semi_invariant == full_solve(A.chi_g, rows, rhs, False), S.name
    r3, b3 = _mu_rows(S.bialgebra, A.chi_g, A.chi_gs)
    assert A.mu == full_solve(A.chi_g, rows + r3, rhs + b3, S.h.dim == 0), S.name
    return A.semi_invariant[0] is not None


def sl_specs(workloads, n, eta, kinds):
    return [S for _, S in workloads.sl_homspaces(n, eta, kinds)]


@pytest.mark.parametrize("name", catalog.HOMSPACE_NAMES)
def test_catalog_solves_match_full_solves(workloads, name):
    for eta in workloads.ETA_POOL[::5]:
        assert_matches_full_solves(catalog.build_homspace(name, eta))


@pytest.mark.parametrize("n", [3, 4])
def test_sl_subalgebra_solves_match_full_solves(workloads, n):
    kinds = ["cartan", "so"] + workloads.borels(n)[:: 5 if n == 3 else 11]
    consistent = []
    for eta in workloads.ETA_POOL[2::7]:
        for S in sl_specs(workloads, n, eta, kinds):
            consistent.append(assert_matches_full_solves(S))
    # the Borels' semi-invariant systems are inconsistent (chi_h is nonzero on
    # the Cartan, where every closed form vanishes); the others are not
    assert True in consistent and False in consistent


def test_solves_match_full_solves_with_h_zero_and_inconsistent_rows(workloads):
    for name in ("subgroup-sphere", "toda-n3"):
        S = catalog.build_homspace(name, 1)
        zero = HomogeneousSpaceSpec(f"{name}-h0", S.bialgebra, S.bialgebra.g.subalgebra([]))
        assert assert_matches_full_solves(zero)
    (borel,) = sl_specs(workloads, 2, Fraction(3, 2), ["borel-01"])
    assert not assert_matches_full_solves(borel)


def test_sl4_borel_never_eliminates_the_full_mu_stack(workloads, monkeypatch):
    """The mu solve reuses the semi-invariant elimination: no rref sees the
    closedness, h and horizontal rows stacked together."""
    (S,) = sl_specs(workloads, 4, Fraction(1, 2), ["borel-0123"])
    A = _Analysis(S)
    full_height = len(A.semi_rows[0]) + len(_mu_rows(S.bialgebra, A.chi_g, A.chi_gs)[0])
    heights = []
    rref = linalg.rref

    def counted(mat):
        heights.append(len(mat))
        return rref(mat)

    monkeypatch.setattr(linalg, "rref", counted)
    row = homspace.classification_row(S)
    assert row["mu_status"] == homspace.MU_FAILS_II
    assert heights and full_height not in heights
    assert max(heights) < full_height
