import dis
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from poishom.poly import Polynomial, float_evaluator

from float_reference import eval_float

V = ("x", "y", "z")


def x():
    return Polynomial.variable(V, "x")


def y():
    return Polynomial.variable(V, "y")


def z():
    return Polynomial.variable(V, "z")


def test_construction_drops_zero_terms():
    p = Polynomial(V, {(1, 0, 0): 0, (0, 1, 0): 2})
    assert p.terms == {(0, 1, 0): Fraction(2)}


def test_bad_exponent_rejected():
    with pytest.raises(ValueError):
        Polynomial(V, {(1, 0): 1})
    with pytest.raises(ValueError):
        Polynomial(V, {(-1, 0, 0): 1})


def test_arithmetic_basics():
    p = (x() + y()) * (x() - y())
    assert p == x() * x() - y() * y()
    assert (p - p).is_zero()
    assert (x() + 1) * (x() + 1) == x() ** 2 + 2 * x() + 1


def test_pow():
    assert (x() + y()) ** 0 == Polynomial.constant(V, 1)
    assert (x() + y()) ** 3 == (x() + y()) * (x() + y()) * (x() + y())
    with pytest.raises(ValueError):
        x() ** -1


def test_mixed_variable_rejected():
    other = Polynomial.variable(("a", "b"), "a")
    with pytest.raises(ValueError):
        x() + other


def test_diff():
    p = x() ** 2 * y() + 3 * z()
    assert p.diff("x") == 2 * x() * y()
    assert p.diff("y") == x() ** 2
    assert p.diff("z") == Polynomial.constant(V, 3)
    assert Polynomial.constant(V, 5).diff("x").is_zero()


def test_eval_exact():
    p = x() ** 2 - Fraction(1, 2) * y() * z()
    assert p.eval((Fraction(1, 3), 2, 3)) == Fraction(1, 9) - 3
    assert p.eval_float((1.0, 2.0, 2.0)) == pytest.approx(-1.0)


def test_subs_vars_composition():
    new = ("u", "v")
    u = Polynomial.variable(new, "u")
    v = Polynomial.variable(new, "v")
    p = x() * y() + z()
    q = p.subs_vars(new, [u + v, u - v, u * v])
    assert q == (u + v) * (u - v) + u * v


def test_degree():
    assert (x() ** 3 * y() + z()).degree() == 4
    assert Polynomial.zero(V).degree() == 0


rationals = st.fractions(max_denominator=8, min_value=-9, max_value=9)
exponents = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)
polys = st.dictionaries(exponents, rationals, max_size=6).map(
    lambda terms: Polynomial(V, terms)
)


@settings(max_examples=80, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert (p - p).is_zero()


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_leibniz_rule_for_diff(p, q):
    assert (p * q).diff("x") == p.diff("x") * q + p * q.diff("x")


@settings(max_examples=60, deadline=None)
@given(polys, st.tuples(rationals, rationals, rationals))
def test_eval_is_ring_homomorphism(p, point):
    q = x() * y() - z() + 2
    assert (p * q).eval(point) == p.eval(point) * q.eval(point)
    assert (p + q).eval(point) == p.eval(point) + q.eval(point)


# ---------------------------------------------------------------------------
# compiled float evaluation against the interpretive reference loop
# ---------------------------------------------------------------------------


def _outcome(evaluate):
    """Bit patterns of the values, or the OverflowError raised."""
    try:
        return "ok", [v.hex() for v in evaluate()]
    except OverflowError as exc:
        return "overflow", str(exc)


def _scaled(q, k):
    return q * Fraction(10) ** k


# small, tiny (down to float underflow) and huge (up to near float overflow)
# rational coefficients of either sign
float_coeffs = st.builds(
    _scaled,
    st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
    st.sampled_from([0, 0, 0, -30, 30, -320, -330, 300, 305]),
)
float_exponents = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
float_polys = st.dictionaries(float_exponents, float_coeffs, max_size=8).map(
    lambda terms: Polynomial(V, terms)
)
coordinates = st.one_of(
    st.floats(min_value=-4, max_value=4),
    st.sampled_from([0.0, -0.0, 1e-200, -3e-170, 1e60, -2e55, 1e160, math.inf, -math.inf, math.nan]),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(float_polys, max_size=4), st.tuples(coordinates, coordinates, coordinates))
def test_float_evaluator_matches_interpretive_loop(polys, point):
    want = _outcome(lambda: [eval_float(p, point) for p in polys])
    if want[0] == "ok":
        assert _outcome(lambda: float_evaluator(V, polys)(*point)) == want
    for p in polys:
        # one polynomial at a time, an overflowing x**k raises the same error
        single = _outcome(lambda: [eval_float(p, point)])
        assert _outcome(lambda: float_evaluator(V, [p])(*point)) == single
        assert _outcome(lambda: [p.eval_float(point)]) == single


def test_float_evaluator_edge_cases():
    zero = Polynomial.zero(V)
    assert float_evaluator(V, [zero])(1.0, 2.0, 3.0) == (0.0,)
    assert float_evaluator(V, [])(1.0, 2.0, 3.0) == ()
    # a -0.0 term sums to 0.0, as the reference's running sum from 0.0 does
    negzero = Polynomial(V, {(1, 0, 0): Fraction(-1, 10**400)})
    (value,) = float_evaluator(V, [negzero])(1.0, 0.0, 0.0)
    assert value.hex() == eval_float(negzero, (1.0, 0.0, 0.0)).hex() == "0x0.0p+0"
    # an overflowing power raises the reference's OverflowError
    cube = x() ** 3
    with pytest.raises(OverflowError) as got:
        float_evaluator(V, [cube])(1e200, 0.0, 0.0)
    with pytest.raises(OverflowError) as want:
        eval_float(cube, (1e200, 0.0, 0.0))
    assert str(got.value) == str(want.value)
    # a coefficient beyond the float range raises OverflowError, as float(c) does
    with pytest.raises(OverflowError):
        float_evaluator(V, [Polynomial.constant(V, 10**400)])
    with pytest.raises(ValueError, match="different variables"):
        float_evaluator(V, [Polynomial.variable(("a",), "a")])


def test_float_evaluator_long_polynomial():
    # 3375 terms: summed in several generated statements, in terms order
    p = Polynomial(
        V,
        {(i, j, k): Fraction((-1) ** (i + j) * (i + 2 * j + 3 * k + 1), k + 1)
         for i in range(15) for j in range(15) for k in range(15)},
    )
    point = (0.9, -1.1, 0.7)
    (value,) = float_evaluator(V, [p])(*point)
    assert value.hex() == eval_float(p, point).hex()


def test_float_evaluator_source_names_no_variable():
    # variable names never enter the generated code: it reads only its
    # positional arguments and locals, and looks up no global or builtin
    names = ("__import__", "os")
    p = Polynomial(names, {(1, 2): 3, (0, 1): Fraction(-1, 3)})
    evaluate = float_evaluator(names, [p, p])
    code = evaluate.__code__
    assert code.co_names == ()
    # the hoisted powers x0**1, x1**2 and x1**1 are its only other locals
    assert set(code.co_varnames) <= {"x0", "x1", "v0", "v1", "p0_1", "p1_2", "p1_1"}
    # each distinct power is computed once, though both polynomials use it
    ops = list(dis.get_instructions(code))
    powers = [
        (base.argval, exponent.argval)
        for base, exponent, op in zip(ops, ops[1:], ops[2:])
        if op.opname == "BINARY_OP" and op.argrepr == "**"
    ]
    assert sorted(powers) == [("x0", 1), ("x1", 1), ("x1", 2)]
    assert evaluate(2.0, 0.5) == (eval_float(p, (2.0, 0.5)),) * 2
