"""Exact arithmetic against sympy as an independent oracle.

The ``Polynomial`` ring operations (+, -, *, **), ``diff`` and ``eval``, and
``linalg.rank``/``nullspace``/``det``/``invert``, are compared with sympy's
results on random inputs.  sympy is a test-side oracle only; these tests are skipped where it is
not installed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from poishom import linalg
from poishom.poly import Polynomial

sympy = pytest.importorskip("sympy")

V = ("x", "y", "z")
SYMS = sympy.symbols(V)

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
terms = st.dictionaries(
    st.tuples(*(st.integers(0, 3) for _ in V)), coeffs, max_size=4
)
polys = terms.map(lambda t: Polynomial(V, t))


def to_sympy(p: Polynomial):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**k for s, k in zip(SYMS, e)))
         for e, c in p.terms.items()),
        sympy.Integer(0),
    )


def from_sympy(expr) -> dict:
    """{exponent tuple: Fraction} of an expanded sympy polynomial in x, y, z."""
    poly = sympy.Poly(sympy.expand(expr), *SYMS)
    return {e: Fraction(int(c.p), int(c.q)) for e, c in poly.as_dict().items() if c}


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_ring_operations_match_sympy(p, q):
    a, b = to_sympy(p), to_sympy(q)
    assert (p + q).terms == from_sympy(a + b)
    assert (p - q).terms == from_sympy(a - b)
    assert (p * q).terms == from_sympy(a * b)
    assert (-p).terms == from_sympy(-a)


@settings(max_examples=40, deadline=None)
@given(polys, st.integers(0, 3))
def test_power_matches_sympy(p, k):
    assert (p**k).terms == from_sympy(to_sympy(p) ** k)


@settings(max_examples=60, deadline=None)
@given(polys, st.sampled_from(V))
def test_diff_matches_sympy(p, var):
    assert p.diff(var).terms == from_sympy(sympy.diff(to_sympy(p), SYMS[V.index(var)]))


@settings(max_examples=60, deadline=None)
@given(polys, st.tuples(*(coeffs for _ in V)))
def test_eval_matches_sympy(p, point):
    subs = {s: sympy.Rational(c.numerator, c.denominator) for s, c in zip(SYMS, point)}
    want = sympy.Rational(to_sympy(p).subs(subs))
    assert p.eval(point) == Fraction(int(want.p), int(want.q))


def _low_rank_matrix(rows, cols, rank, entries):
    """rows x cols product of a rows x rank and a rank x cols factor."""
    it = iter(entries)
    left = [[next(it) for _ in range(rank)] for _ in range(rows)]
    right = [[next(it) for _ in range(cols)] for _ in range(rank)]
    return [
        [sum((left[i][k] * right[k][j] for k in range(rank)), Fraction(0)) for j in range(cols)]
        for i in range(rows)
    ]


small = st.integers(-3, 3).map(Fraction)


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rank = draw(st.integers(0, min(rows, cols)))
    entries = draw(st.lists(small, min_size=rank * (rows + cols), max_size=rank * (rows + cols)))
    return _low_rank_matrix(rows, cols, rank, entries)


def to_sympy_matrix(mat):
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row] for row in mat])


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rank_and_nullspace_match_sympy(mat):
    ref = to_sympy_matrix(mat)
    assert linalg.rank(mat) == ref.rank()
    # both bases are read off the reduced row echelon form, one vector per
    # free column with a 1 there, so they agree vector by vector
    want = [[Fraction(int(c.p), int(c.q)) for c in v] for v in ref.nullspace()]
    assert linalg.nullspace(mat) == want


@st.composite
def square_matrices(draw):
    """Square matrices with entries such as 7/3, some of them singular."""
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.just(Fraction(0)), coeffs)
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=120, deadline=None)
@given(square_matrices())
def test_det_and_invert_match_sympy(mat):
    ref = to_sympy_matrix(mat)
    assert linalg.det(mat) == Fraction(str(ref.det()))
    if ref.det() == 0:
        with pytest.raises(ValueError, match="singular"):
            linalg.invert(mat)
    else:
        inv = ref.inv()
        n = len(mat)
        assert linalg.invert(mat) == [[Fraction(str(inv[i, j])) for j in range(n)] for i in range(n)]
