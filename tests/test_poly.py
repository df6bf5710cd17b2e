import dis
import inspect
import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from poishom import poly
from poishom.linalg import integer_table
from poishom.poly import Polynomial, exact_evaluator, float_evaluator, poly_sum

from float_reference import eval_float
from oracles import (
    add_by_constructor,
    diff_by_constructor,
    mul_by_constructor,
    subs_vars,
    sum_by_chained_adds,
)

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
    # a non-integer exponent once built x^1.5, whose exact eval at (2, 1)
    # was the float 2.828...
    with pytest.raises(ValueError, match="bad exponent tuple"):
        Polynomial(("x", "y"), {(1.5, 0): 1})
    for expo in ((1.0, 0, 0), (0, Fraction(1, 2), 0), (0, 0, "1")):
        with pytest.raises(ValueError, match="bad exponent tuple"):
            Polynomial(V, {expo: 1})
    # an unknown variable is named, not reported as a failed list or tuple
    # lookup ("'q' is not in list", "tuple.index(x): x not in tuple")
    for call in (lambda: Polynomial.variable(V, "q"), lambda: x().diff("q")):
        with pytest.raises(ValueError, match=r"^unknown variable 'q', not one of x, y, z$"):
            call()


def test_equality_with_a_non_number_is_false():
    # p == None raised TypeError and p == 'abc' ValueError, from coercing
    # the operand to a constant polynomial
    p = x() + 1
    for other in (None, "abc", [1], object()):
        assert not p == other
        assert p != other
    assert Polynomial.constant(V, 2) == 2
    assert Polynomial.constant(V, Fraction(1, 2)) == Fraction(1, 2) != p


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


def test_eval_rejects_a_point_of_the_wrong_length():
    # the point is not truncated or padded: x*y + 3 once gave 5 at (2,) and
    # 13 at (2, 5, 7); eval_float raised the generated code's TypeError
    # "_evaluate() missing 1 required positional argument: 'x1'"
    xy = ("x", "y")
    p = Polynomial.variable(xy, "x") * Polynomial.variable(xy, "y") + 3
    assert p.eval((2, 5)) == 13
    assert p.eval_float((2.0, 5.0)) == 13.0
    for point in ((2,), (2, 5, 7), ()):
        message = f"point has {len(point)} coordinates, the polynomial 2 variables"
        for evaluate in (p.eval, p.eval_float):
            with pytest.raises(ValueError, match=message):
                evaluate(point)


def test_subs_vars_composition():
    new = ("u", "v")
    u = Polynomial.variable(new, "u")
    v = Polynomial.variable(new, "v")
    p = x() * y() + z()
    q = subs_vars(p, new, [u + v, u - v, u * v])
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


# few exponents and unit-sized coefficients, so that sums and products
# cancel terms often
cancelling_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)),
    st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)]),
    max_size=5,
).map(lambda terms: Polynomial(V, terms))


def _items(p):
    """The terms in key order: the float evaluator sums in this order."""
    assert all(type(c) is Fraction and c for c in p.terms.values())
    return list(p.terms.items())


@settings(max_examples=120, deadline=None)
@given(st.lists(cancelling_polys, min_size=1, max_size=5))
def test_results_match_the_constructor_oracle_in_key_order(summands):
    before = [_items(p) for p in summands]
    p, q = summands[0], summands[-1]
    assert _items(p + q) == _items(add_by_constructor(p, q))
    assert _items(p - q) == _items(add_by_constructor(p, -q))
    assert _items(p * q) == _items(mul_by_constructor(p, q))
    assert _items(p * q + q * p) == _items(
        add_by_constructor(mul_by_constructor(p, q), mul_by_constructor(q, p))
    )
    for var in V:
        assert _items(p.diff(var)) == _items(diff_by_constructor(p, var))
    with_cancellations = [*summands, *(-s for s in summands[:2]), *summands[:1]]
    assert _items(poly_sum(V, with_cancellations)) == _items(
        sum_by_chained_adds(V, with_cancellations)
    )
    # no result holds, or changed, a dict of its operands
    assert [_items(p) for p in summands] == before


@pytest.mark.parametrize("c", [0, 1, -1, 6, Fraction(-5, 3), "1/3"])
def test_scalar_products_match_the_constructor_oracle(c):
    # a scalar scales the terms in place of a product with a constant
    # polynomial: the same terms in the same key order, zero for c = 0
    p = Fraction(3, 2) * x() * y() - z() * z() + 4
    want = _items(mul_by_constructor(p, Polynomial.constant(V, c)))
    assert _items(p * c) == want == _items(c * p)
    assert (p * c).is_zero() == (c == 0)
    assert p * Fraction(c) == mul_by_constructor(p, Polynomial.constant(V, c))


def test_differences_match_the_constructor_oracle():
    # one pass, with the key order of p + (-q): a cancelled key is deleted,
    # the others keep their places, and q's new keys follow in q's order
    p = x() + 2 * y() - z() * z()
    for q in (x() - z(), x() + 2 * y(), p, z() * z() + x() * y(), Polynomial.zero(V)):
        assert _items(p - q) == _items(add_by_constructor(p, -q))
    assert list((p - (x() - z())).terms) == [(0, 1, 0), (0, 0, 2), (0, 0, 1)]
    assert _items(p - Fraction(1, 2)) == _items(add_by_constructor(p, Polynomial.constant(V, "-1/2")))
    with pytest.raises(ValueError, match="different variables"):
        p - Polynomial.variable(("a",), "a")


def test_a_cancelled_key_goes_to_the_end_when_it_returns():
    # the chained + dropped a cancelled key, so a later summand that brings
    # it back appends it, and the float evaluator adds it last
    summands = [x() + y(), -x(), z(), 2 * x()]
    got = poly_sum(V, summands)
    assert list(got.terms) == [(0, 1, 0), (0, 0, 1), (1, 0, 0)]
    assert _items(got) == _items(sum_by_chained_adds(V, summands))
    assert poly_sum(V, []) == Polynomial.zero(V)
    with pytest.raises(ValueError, match="different variables"):
        poly_sum(V, [x(), Polynomial.variable(("a",), "a")])


def test_results_never_share_a_terms_dict():
    p = x() + 3 * y()
    zero = Polynomial.zero(V)
    one = Polynomial.constant(V, 1)
    for got in (p + zero, zero + p, p - zero, -(-p), p * one, one * p, poly_sum(V, [p])):
        assert got == p and got.terms is not p.terms
    poly_sum(V, [p, -x()])
    assert _items(p) == [((1, 0, 0), 1), ((0, 1, 0), 3)]


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
    p = Polynomial(names, {(1, 2): 3, (0, 1): Fraction(-1, 3), (1, 1): 1, (1, 0): -1})
    evaluate = float_evaluator(names, [p, p])
    code = evaluate.__code__
    assert code.co_names == ()
    # the hoisted power x1**2 is its only other local
    assert set(code.co_varnames) <= {"x0", "x1", "v0", "v1", "p1_2"}
    # each distinct power with k > 1 is computed once, though both
    # polynomials use it; a first power is the coordinate itself
    ops = list(dis.get_instructions(code))
    powers = [
        (base.argval, exponent.argval)
        for base, exponent, op in zip(ops, ops[1:], ops[2:])
        if op.opname == "BINARY_OP" and op.argrepr == "**"
    ]
    assert powers == [("x1", 2)]
    # a unit coefficient is a sign, not a 1.0 or -1.0 factor
    floats = {c for c in code.co_consts if type(c) is float}
    assert floats == {0.0, 3.0, float(Fraction(-1, 3))}
    assert evaluate(2.0, 0.5) == (eval_float(p, (2.0, 0.5)),) * 2


def _bits(value):
    return struct.pack("<d", value).hex()


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("coordinate", [-0.0, 0.0, math.inf, -math.inf, math.nan, 1e160, -1e160])
def test_float_evaluator_unit_coefficients_bit_for_bit(sign, coordinate):
    # a coefficient 1 or -1 is left out or written as subtraction; every bit
    # of the value, and the sign of a zero, is the reference's 1.0 * p or
    # -1.0 * p term
    point = (coordinate, 2.5, -0.0)
    terms = [
        {(1, 0, 0): sign},
        {(1, 1, 0): sign},
        {(0, 0, 1): sign},
        {(1, 0, 1): sign, (0, 1, 0): sign},
        {(1, 0, 0): sign, (0, 1, 0): -sign},
        {(0, 1, 0): sign, (1, 0, 0): sign, (0, 0, 0): -sign},
        {(1, 1, 1): sign, (1, 0, 0): 3},
    ]
    polys = [Polynomial(V, t) for t in terms]
    got = float_evaluator(V, polys)(*point)
    assert [_bits(v) for v in got] == [_bits(eval_float(p, point)) for p in polys]
    # a squared 1e160 still overflows, as the reference's power does
    square = Polynomial(V, {(2, 0, 0): sign})
    assert _outcome(lambda: float_evaluator(V, [square])(*point)) == _outcome(
        lambda: [eval_float(square, point)]
    )


# ---------------------------------------------------------------------------
# compiled exact evaluation against Polynomial.eval
# ---------------------------------------------------------------------------

# numerators and denominators up to 10**50
big = st.integers(-(10**50), 10**50)
exact_coeffs = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, big, st.integers(1, 10**50)),
)
exact_exponents = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))


def _long_poly(seed):
    """300 terms over three denominators up to 10**50 (one lcm of a few
    hundred unrelated 50-digit denominators would make every literal and
    every value tens of thousands of digits long)."""
    rng = random.Random(seed)
    denominators = [rng.randint(1, 10**50) for _ in range(3)]
    terms = {}
    while len(terms) < 300:
        e = (rng.randint(0, 7), rng.randint(0, 7), rng.randint(0, 7))
        terms[e] = Fraction(rng.randint(-(10**50), 10**50) or 1, rng.choice(denominators))
    return Polynomial(V, terms)


exact_polys = st.one_of(
    st.dictionaries(exact_exponents, exact_coeffs, max_size=8).map(lambda t: Polynomial(V, t)),
    st.just(Polynomial.zero(V)),
    exact_coeffs.map(lambda c: Polynomial.constant(V, c)),
    st.integers(0, 2**32).map(_long_poly),
)
exact_coordinates = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-(10**6), 10**6),
    st.builds(Fraction, big, st.integers(1, 10**50)),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(exact_polys, max_size=3), st.tuples(*[exact_coordinates] * 3))
def test_exact_evaluator_matches_eval(polys, point):
    ints, q = exact_evaluator(V, polys)(*point)
    assert type(q) is int and q > 0
    assert all(type(v) is int for v in ints)
    assert [Fraction(v, q) for v in ints] == [p.eval(point) for p in polys]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(exact_polys, max_size=3),
    st.integers(1, 3),
    st.tuples(*[exact_coordinates] * 3),
)
def test_scaled_evaluator_above_every_degree_matches_eval(polys, extra, point):
    # as the multiplicativity check calls it on derivatives: deg is above
    # every map's degree, and every value is still over Q = L D**deg
    scale, maps = integer_table({j: p.terms for j, p in enumerate(polys)})
    deg = max((p.degree() for p in polys), default=0) + extra
    ints, q = poly.scaled_evaluator(3, scale, deg, maps.values())(*point)
    assert type(ints) is tuple and all(type(v) is int for v in ints)
    assert q == scale * math.lcm(*[Fraction(c).denominator for c in point]) ** deg
    assert [Fraction(v, q) for v in ints] == [p.eval(point) for p in polys]


def test_exact_evaluator_edge_cases():
    assert exact_evaluator(V, [])(1, 2, 3) == ((), 1)
    assert exact_evaluator((), [Polynomial.constant((), Fraction(3, 4))])() == ((3,), 4)
    (value,), q = exact_evaluator(V, [Polynomial.zero(V)])(Fraction(1, 3), 0, 5)
    assert value == 0 and q == 1
    with pytest.raises(ValueError, match="different variables"):
        exact_evaluator(V, [Polynomial.variable(("a",), "a")])


def test_exact_evaluator_rejects_a_point_of_the_wrong_length():
    evaluate = exact_evaluator(V, [x() * y() + 3])
    for point in ((2,), (2, 5), (2, 5, 7, 1)):
        with pytest.raises(TypeError):
            evaluate(*point)


def test_exact_evaluator_rejects_a_float_coordinate():
    evaluate = exact_evaluator(V, [x() * y() + 3])
    for point, index in (((0.5, 1, 2), 0), ((1, Fraction(1, 2), 2.0), 2)):
        with pytest.raises(TypeError, match=f"coordinate {index} is a float"):
            evaluate(*point)


def _leaves(x):
    """Every value that is not a list, tuple or dict inside x, keys included."""
    if isinstance(x, dict):
        x = [*x.keys(), *x.values()]
    if isinstance(x, (list, tuple)):
        return [leaf for item in x for leaf in _leaves(item)]
    return [x]


def test_exact_evaluator_plan_holds_only_ints_and_slots(code_generation):
    # variable names and coefficient text never enter the plan, and nothing
    # is compiled or executed: the plan is int coefficients and slot indices
    names = ("__import__", "os")
    p = Polynomial(names, {(1, 2): 3, (0, 1): Fraction(-1, 3), (0, 0): 7})
    polys = [p, p * p, Polynomial.zero(names), p]
    point = (Fraction(2, 3), Fraction(-5, 7))
    with code_generation() as generated:
        evaluate = exact_evaluator(names, polys)
        ints, q = evaluate(*point)
    assert generated == []
    # the plan is one list of (c, factor slots) per polynomial, and no name,
    # nor any other str, is anywhere in what the evaluator keeps
    kept = inspect.getclosurevars(evaluate).nonlocals
    plan = kept["plan"]
    assert [len(terms) for terms in plan] == [len(r.terms) for r in polys]
    assert all(type(c) is int and all(type(s) is int for s in slots)
               for terms in plan for c, slots in terms)
    assert all(type(leaf) is int for leaf in _leaves(list(kept.values())) if not callable(leaf))
    assert type(ints) is tuple
    assert [Fraction(v, q) for v in ints] == [r.eval(point) for r in polys]


def _value_stores(code):
    """The value locals v{j} the generated statements assign, in order."""
    return [
        op.argval
        for op in dis.get_instructions(code)
        if op.opname == "STORE_FAST" and op.argval.startswith("v")
    ]


def test_repeated_polynomial_generates_its_terms_once(monkeypatch):
    # a repeat is recognised from its coefficient items, before its terms
    # are generated
    calls = []
    term = poly._term
    monkeypatch.setattr(poly, "_term", lambda *a: calls.append(0) or term(*a))
    p = x() * y() - Fraction(1, 3) * z() ** 2 + 2
    float_evaluator(V, [p, p * 1, p])
    assert len(calls) == len(p.terms)


def test_repeated_polynomial_gets_the_value_of_each():
    # a repeat, equal item for item or only as a polynomial, is evaluated as
    # its own map and reads the value of the polynomial evaluated alone
    p = x() * y() - Fraction(1, 3) * z() ** 2 + 2
    evaluate = exact_evaluator(V, [p, p * 1, p])
    point = (Fraction(3, 4), Fraction(-3, 2), Fraction(9, 4))
    ints, q = evaluate(*point)
    assert [Fraction(v, q) for v in ints] == [p.eval(point)] * 3
    (alone,), q_alone = exact_evaluator(V, [p])(*point)
    assert ints == (alone,) * 3 and q == q_alone


def test_float_equal_coefficients_share_one_sum():
    # coefficients that round to the same float, and the two signs of an
    # underflowed coefficient, give one statement and the values of each
    # polynomial evaluated alone, at every point
    tiny = Fraction(1, 10**400)
    polys = [
        Polynomial(V, {(1, 0, 0): Fraction(1, 3), (0, 1, 0): tiny}),
        Polynomial(V, {(1, 0, 0): Fraction(1, 3) + tiny, (0, 1, 0): -tiny}),
    ]
    evaluate = float_evaluator(V, polys)
    assert _value_stores(evaluate.__code__) == ["v0"]
    points = [(0.75, -1.5, 2.0), (1.0, math.inf, 0.0), (1.0, -math.inf, 0.0), (1.0, math.nan, 0.0)]
    for point in points:
        got = [_bits(v) for v in evaluate(*point)]
        assert got == [_bits(float_evaluator(V, [r])(*point)[0]) for r in polys]
        assert got == [_bits(eval_float(r, point)) for r in polys]


def test_repeated_polynomials_get_one_statement_each():
    p = x() * y() - Fraction(1, 3) * z() ** 2 + 2
    q = x() ** 2 + y()
    # the same terms in another order are another float sum
    q_reversed = Polynomial(V, dict(reversed(list(q.terms.items()))))
    long = _long_poly(5)  # 300 terms, summed in two statements
    zero = Polynomial.zero(V)
    polys = [p, q, p, zero, q, long, p * 1, q_reversed, long, zero, q - 0]
    # one assignment per distinct sum: p, q, both parts of long, q_reversed
    stores = ["v0", "v1", "v5", "v5", "v7"]

    evaluate = float_evaluator(V, polys)
    assert _value_stores(evaluate.__code__) == stores
    point = (0.75, -1.5, 2.25)
    assert [_bits(v) for v in evaluate(*point)] == [_bits(eval_float(r, point)) for r in polys]

    # the exact evaluator gives every polynomial of the list its value
    evaluate = exact_evaluator(V, polys)
    point = (Fraction(3, 4), Fraction(-3, 2), Fraction(9, 4))
    ints, q_all = evaluate(*point)
    assert [Fraction(v, q_all) for v in ints] == [r.eval(point) for r in polys]
