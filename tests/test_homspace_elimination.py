"""The semi-invariant and mu solves against full solves of the stacked rows.

``homspace._Analysis`` eliminates the semi-invariant system [closedness; h |
rhs] once, and starts the mu system from its nonzero reduced rows plus the
horizontal-field rows, all on sparse int rows.  Here both answers are
compared with the plain path: one Fraction elimination
(``oracles.rref_by_fractions``) of the full stacked Fraction rows of
``oracles.semi_rows_by_fractions`` and ``mu_rows_by_fractions``, with one
closedness row per nonzero bracket [e_i, e_j], then the preference for chi_g
and chi_g/2.  Inputs are every catalog entry at several etas of the
benchmark's pool, and the sl(3)/sl(4) Cartan, so(n) and Borel subalgebras the
benchmark classifies, built from ``perfbench/workloads.py`` (read-only).
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from poishom import catalog, homspace, lie, linalg
from poishom.homspace import HomogeneousSpaceSpec, _Analysis, _mu_rows
from poishom.lie import Covector

from oracles import (
    mu_rows_by_fractions,
    read_solution_by_fractions,
    rref_by_fractions,
    semi_rows_by_fractions,
)

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
    aug = [row + [b] for row, b in zip(rows, rhs)]
    part, null = read_solution_by_fractions(*rref_by_fractions(aug), chi.algebra.dim)
    if part is None:
        return None, null
    half = Fraction(1, 2) * chi
    for cand in [half, chi] if degenerate_first else [chi, half]:
        if [sum((a * c for a, c in zip(row, cand.coords)), Fraction(0)) for row in rows] == rhs:
            return cand, null
    return Covector(chi.algebra, part), null


def assert_matches_full_solves(S):
    """Both solves of one pair agree with the full ones; returns whether the
    semi-invariant system was consistent."""
    A = _Analysis(S)
    rows, rhs = semi_rows_by_fractions(S)
    assert A.semi_invariant == full_solve(A.chi_g, rows, rhs, False), S.name
    r3, b3 = mu_rows_by_fractions(S.bialgebra, A.chi_g, A.chi_gs)
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
    """The mu solve reuses the semi-invariant elimination: no elimination sees
    the closedness, h and horizontal rows stacked together."""
    (S,) = sl_specs(workloads, 4, Fraction(1, 2), ["borel-0123"])
    A = _Analysis(S)
    full_height = len(A.semi_rows) + len(_mu_rows(S.bialgebra, A.chi_g, A.chi_gs))
    heights = []
    int_rref = linalg.int_rref

    def counted(rows):
        heights.append(len(rows))
        return int_rref(rows)

    monkeypatch.setattr(linalg, "int_rref", counted)
    row = homspace.classification_row(S)
    assert row["mu_status"] == homspace.MU_FAILS_II
    assert heights and full_height not in heights
    assert max(heights) < full_height


def rref_of_int_rows(rows, cols):
    """The Fraction rref rows (zero rows dropped) and pivots of int rows with
    the rhs in column ``cols``."""
    red, pivots = linalg.int_rref(rows)
    dense = [[Fraction(r.get(c, 0), r[p]) for c in range(cols + 1)] for r, p in zip(red, pivots)]
    return dense, pivots


def rref_of_fraction_rows(rows, rhs):
    red, pivots = rref_by_fractions([row + [b] for row, b in zip(rows, rhs)])
    return red[: len(pivots)], pivots


def lines(rows):
    """The set of lines through the nonzero augmented rows, each row divided
    by its first nonzero entry."""
    out = set()
    for row in rows:
        lead = next((x for x in row if x), None)
        if lead is not None:
            out.add(tuple(x / lead for x in row))
    return out


def assert_int_rows_match_fraction_rows(S):
    """The int semi-invariant and horizontal rows span the row spaces of the
    Fraction builders', rhs included: same reduced row echelon form.  An
    inconsistent system's reduced form is blind to the scale of its rhs, so
    the rows are also compared line by line: each int row is a multiple of a
    Fraction row and back (the int closedness rows are one per direction)."""
    A, B = _Analysis(S), S.bialgebra
    cols = B.g.dim
    horizontal = _mu_rows(B, A.chi_g, A.chi_gs)
    for ints, (rows, rhs) in (
        (A.semi_rows, semi_rows_by_fractions(S)),
        (horizontal, mu_rows_by_fractions(B, A.chi_g, A.chi_gs)),
    ):
        assert rref_of_int_rows(ints, cols) == rref_of_fraction_rows(rows, rhs), S.name
        dense = [[Fraction(r.get(c, 0)) for c in range(cols + 1)] for r in ints]
        assert lines(dense) == lines([row + [b] for row, b in zip(rows, rhs)]), S.name
    return any(row.get(cols) for row in horizontal)


@pytest.mark.parametrize("name", catalog.HOMSPACE_NAMES)
@pytest.mark.parametrize("eta", [Fraction(1), Fraction(-5, 2), Fraction(1, 3)])
def test_catalog_int_rows_match_fraction_rows(name, eta):
    assert_int_rows_match_fraction_rows(catalog.build_homspace(name, eta))


@pytest.mark.parametrize("n", [3, 4])
def test_sl_int_rows_match_fraction_rows(workloads, n):
    kinds = ["cartan", "so"] + workloads.borels(n)[:2]
    specs = sl_specs(workloads, n, Fraction(-2, 3), kinds)
    # chi_g* is nonzero, so every system's horizontal rows carry a rhs
    assert all([assert_int_rows_match_fraction_rows(S) for S in specs])


DENSE_ADAPTERS = ("rref", "nullspace", "in_span", "solve", "rank")


@pytest.mark.parametrize("n", [3, 4])
def test_prebuilt_specs_use_no_dense_elimination(workloads, monkeypatch, n):
    """On a prebuilt spec, classification_row and lu_crosscheck never call
    the dense Fraction adapters of ``linalg``: h's span and h0's are
    eliminated on int rows, ann(h) is read off h's span, and l is assembled
    from int rows with no padded Vector of the double."""
    specs = [catalog.build_homspace(name, Fraction(-5, 2)) for name in catalog.HOMSPACE_NAMES]
    specs += sl_specs(workloads, n, Fraction(3, 2), ["cartan", "so", workloads.borels(n)[-1]])
    calls, made = {name: 0 for name in DENSE_ADAPTERS}, []
    for name in DENSE_ADAPTERS:

        def counted(*args, _name=name, _f=getattr(linalg, name)):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(linalg, name, counted)
    init = lie.Vector.__init__

    def vector(self, algebra, coords):
        made.append(algebra)
        init(self, algebra, coords)

    monkeypatch.setattr(lie.Vector, "__init__", vector)
    for S in specs:
        row = homspace.classification_row(S)
        assert calls == {name: 0 for name in DENSE_ADAPTERS}, S.name
        if row["coisotropic"]:
            made.clear()
            assert homspace.lu_crosscheck(S), S.name
            assert calls == {name: 0 for name in DENSE_ADAPTERS}, S.name
            assert all(algebra is not S.bialgebra.double for algebra in made), S.name
