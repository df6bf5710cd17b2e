import itertools
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from poishom import catalog, coord, linalg, verify
from poishom.coord import (
    ConstraintDriftError,
    FlowTrace,
    JacobiVerdict,
    PolynomialPoissonModel,
    PolyVectorField,
    basic_function_check,
    divergence,
    field_from_character_data,
    hamiltonian_vf,
    hessian_at,
    jacobi_symbolic,
    kernel_obstruction_verify,
    linearization_vs_cocommutator,
    multiplicativity_spotcheck,
    preservation_residual,
    rk4_flow,
)
from poishom.poly import Polynomial, diff_terms, exact_evaluator

from float_reference import eval_field, eval_float, rk4_reference
from oracles import (
    apply_field_by_chained_sums,
    hessian_by_composition,
    divergence_by_chained_sums,
    exact_evaluator_by_codegen,
    jacobi_symbolic_by_triples,
    kernel_residual_row_by_sharp,
    multiplicativity_spotcheck_by_codegen,
    sharp_by_chained_sums,
    sl2_sampler_by_fractions,
    sl3_sampler_by_fractions,
    sphere_sampler_by_fractions,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def comp():
    return catalog.build_model("compartmental")


@pytest.fixture(scope="module")
def su2():
    return catalog.build_model("su2", 1)


@pytest.fixture(scope="module")
def toda():
    return catalog.build_model("toda-n3")


# ---------------------------------------------------------------------------
# hamiltonian fields
# ---------------------------------------------------------------------------


def test_hamiltonian_vf_compartmental(comp):
    X = hamiltonian_vf(comp.model, comp.hamiltonian)
    v = comp.model.vars
    x1 = Polynomial.variable(v, "x1")
    x3 = Polynomial.variable(v, "x3")
    assert list(X.components) == [1 - x1, x1 - 1 - x3, x3]


def test_hamiltonian_vf_constant_is_zero(comp):
    assert hamiltonian_vf(comp.model, comp.model.constant(7)).is_zero()


def test_hamiltonian_vf_toda_matches_displayed_double_sum(toda):
    """The field equals the double sum with coefficients
    (sgn(k-i)+sgn(l-j)) a_ij a_il a_kj, twice (the gradient of the sum of
    squares carries the 2)."""
    X = hamiltonian_vf(toda.model, toda.hamiltonian)
    v = toda.model.vars
    a = {
        (i, j): Polynomial.variable(v, f"a{i}{j}")
        for i in range(1, 4)
        for j in range(1, 4)
    }

    def sgn(d):
        return (d > 0) - (d < 0)

    for k in range(1, 4):
        for l in range(1, 4):
            expected = Polynomial.zero(v)
            for i in range(1, 4):
                for j in range(1, 4):
                    c = sgn(k - i) + sgn(l - j)
                    if c:
                        expected = expected + 2 * c * a[(i, j)] * a[(i, l)] * a[(k, j)]
            assert X.components[3 * (k - 1) + (l - 1)] == expected


def test_energy_conservation(comp, su2):
    for bundle in (comp, su2):
        X = hamiltonian_vf(bundle.model, bundle.hamiltonian)
        assert X(bundle.hamiltonian).is_zero()


def test_leibniz_property(su2):
    rng = random.Random(4)
    v = su2.model.vars

    def rand_poly():
        terms = {}
        for _ in range(4):
            e = tuple(rng.randint(0, 2) for _ in v)
            terms[e] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return Polynomial(v, terms)

    for _ in range(5):
        f, h = rand_poly(), rand_poly()
        pt = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in v)
        lhs = hamiltonian_vf(su2.model, f * h).eval(pt)
        xf = hamiltonian_vf(su2.model, f).eval(pt)
        xh = hamiltonian_vf(su2.model, h).eval(pt)
        fval, hval = f.eval(pt), h.eval(pt)
        rhs = tuple(fval * b + hval * a for a, b in zip(xf, xh))
        assert lhs == rhs


def test_bracket_antisymmetry_all_models():
    for name in catalog.MODEL_NAMES:
        bundle = catalog.build_model(name, 1)
        M = bundle.model
        for i in range(M.dim):
            for j in range(M.dim):
                assert (M.bracket_entry(i, j) + M.bracket_entry(j, i)).is_zero()


# ---------------------------------------------------------------------------
# jacobi
# ---------------------------------------------------------------------------


def test_jacobi_symbolic_compartmental(comp):
    verdict = jacobi_symbolic(comp.model)
    assert verdict.ok and verdict.symbolic


def test_jacobi_sampled_on_varieties():
    for name in ("su2", "sl2-hyperbolic", "sl2-elliptic", "sl2-parabolic"):
        bundle = catalog.build_model(name, 1)
        verdict = jacobi_symbolic(bundle.model, rng=random.Random(11), points=100)
        assert verdict.ok and not verdict.symbolic
        assert verdict.max_residual < 1e-10


def test_jacobi_violation_detected():
    v = ("x", "y", "z")
    x = Polynomial.variable(v, "x")
    bad = PolynomialPoissonModel(
        "bad", v, {(0, 1): x, (1, 2): Polynomial.variable(v, "y"), (0, 2): x * x}
    )
    verdict = jacobi_symbolic(bad)
    assert not verdict.ok and verdict.violating_triple == (0, 1, 2)


def _sphere_point(rng):
    """An exact rational point on the unit sphere (inverse stereographic)."""
    a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    b = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    d = a * a + b * b + 1
    return (2 * a / d, 2 * b / d, (a * a + b * b - 1) / d)


def test_jacobi_tiny_residual_on_variety_fails():
    # {x, y} = z + eps x on the rotation bracket: the Jacobiator is eps y, a
    # nonzero rational far below any float tolerance one might set
    v = ("x", "y", "z")
    x, y, z = (Polynomial.variable(v, n) for n in v)
    eps = Fraction(1, 10**12)
    model = PolynomialPoissonModel(
        "perturbed-sphere",
        v,
        {(0, 1): z + eps * x, (1, 2): x, (0, 2): -1 * y},
        constraints=[x * x + y * y + z * z - 1],
        sampler=_sphere_point,
    )
    verdict = jacobi_symbolic(model, rng=random.Random(3), points=20)
    assert not verdict.ok and not verdict.symbolic
    assert 0 < verdict.max_residual < 1e-10
    exact = PolynomialPoissonModel(
        "sphere", v, {(0, 1): z, (1, 2): x, (0, 2): -1 * y},
        constraints=[x * x + y * y + z * z - 1], sampler=_sphere_point,
    )
    assert jacobi_symbolic(exact, rng=random.Random(3), points=20).ok


@pytest.mark.parametrize("name", ["su2", "toda-n3"])
def test_jacobi_symbolic_compiles_no_evaluator_for_zero_jacobiators(monkeypatch, name):
    # every Jacobiator of these models expands to the zero polynomial, yet
    # one exact evaluator was compiled and run at every point
    compiled = []

    def counting(variables, polys):
        compiled.append(len(polys))
        return exact_evaluator(variables, polys)

    monkeypatch.setattr(coord, "exact_evaluator", counting)
    model = catalog.build_model(name, Fraction(3, 2)).model
    rng = random.Random(4)
    assert jacobi_symbolic(model, rng=rng, points=6) == JacobiVerdict(True, False)
    assert compiled == []
    # the points are still drawn, so a shared rng is left where it was
    want = random.Random(4)
    for _ in range(6):
        model.sampler(want)
    assert rng.getstate() == want.getstate()


# ---------------------------------------------------------------------------
# divergence
# ---------------------------------------------------------------------------


def test_divergence_compartmental_zero(comp):
    X = hamiltonian_vf(comp.model, comp.hamiltonian)
    assert divergence(comp.model, X).is_zero()


def test_divergence_euler_field_counts_dimension():
    v = ("x", "y", "z")
    X = PolyVectorField(v, [Polynomial.variable(v, n) for n in v])
    M = PolynomialPoissonModel("euler", v, {})
    assert divergence(M, X) == Polynomial.constant(v, 3)


def test_divergence_with_log_density(comp):
    v = comp.model.vars
    X = hamiltonian_vf(comp.model, comp.hamiltonian)
    rho = Polynomial.variable(v, "x2")
    # div + X(rho) = 0 + (x1 - 1 - x3)
    assert divergence(comp.model, X, rho) == X(rho)


def test_divergence_horizontal_field_su2(su2):
    assert divergence(su2.model, su2.horizontal_field()).is_zero()


# ---------------------------------------------------------------------------
# kernel certificates
# ---------------------------------------------------------------------------


def test_kernel_certificates_all_group_models():
    expected_value = {
        "su2": Fraction(1),
        "sl2-hyperbolic": Fraction(-4),
        "sl2-elliptic": Fraction(10),
        "sl2-parabolic": Fraction(2),
    }
    for name, val in expected_value.items():
        bundle = catalog.build_model(name, 1)
        cert = kernel_obstruction_verify(
            bundle.model, bundle.kernel_covector, bundle.horizontal_field(), bundle.kernel_witness
        )
        assert cert.witness_value == val
        assert all(c.eval(cert.witness_point) == 0 for c in bundle.model.constraints)


def test_kernel_certificate_su2_obstruction_polynomial(su2):
    eta = Fraction(1)
    cert = kernel_obstruction_verify(
        su2.model, su2.kernel_covector, su2.horizontal_field(), su2.kernel_witness
    )
    v = su2.model.vars
    z = Polynomial.variable(v, "z")
    t = Polynomial.variable(v, "t")
    assert cert.obstruction == eta * (z * z + t * t)


def test_kernel_residual_failure_raises(su2):
    v = su2.model.vars
    bad = [Polynomial.constant(v, 1)] + [Polynomial.zero(v)] * 3
    with pytest.raises(ValueError, match="kernel residual"):
        kernel_obstruction_verify(su2.model, bad, su2.horizontal_field())


def test_kernel_obstruction_inconclusive_raises(su2):
    # pairing the certificate covector against a field it kills leaves nothing
    # to witness
    v = su2.model.vars
    z = Polynomial.variable(v, "z")
    t = Polynomial.variable(v, "t")
    tangent = PolyVectorField(v, [Polynomial.zero(v), Polynomial.zero(v), z, t])
    # covector (0,0,-t,z) pairs to -tz + zt = 0
    with pytest.raises(ValueError, match="inconclusive"):
        kernel_obstruction_verify(su2.model, su2.kernel_covector, tangent)


def test_kernel_obstruction_without_variety_points_says_so(su2):
    # the su2 table and constraint without the sampler: random rational points
    # all but miss the sphere, so the verdict is that no variety point was
    # sampled, not that the obstruction vanishes at every one
    m = su2.model
    bare = PolynomialPoissonModel(
        "su2-no-sampler",
        m.vars,
        {(i, j): m.bracket_entry(i, j) for i, j in itertools.combinations(range(m.dim), 2)},
        constraints=m.constraints,
        base_point=m.base_point,
    )
    with pytest.raises(ValueError, match="no variety point was sampled"):
        kernel_obstruction_verify(bare, su2.kernel_covector, su2.horizontal_field())
    cert = kernel_obstruction_verify(m, su2.kernel_covector, su2.horizontal_field())
    assert cert.witness_value == Fraction(17984, 90601)


def test_kernel_obstruction_sample_follows_rng(su2):
    # with no witness point, the point is the first draw from the sampler
    # (with the given rng) at which the obstruction is nonzero
    field = su2.horizontal_field()
    default = kernel_obstruction_verify(su2.model, su2.kernel_covector, field)
    points = set()
    for seed in (1, 2, 3):
        cert = kernel_obstruction_verify(
            su2.model, su2.kernel_covector, field, rng=random.Random(seed)
        )
        rng = random.Random(seed)
        pt = su2.model.sampler(rng)
        while not cert.obstruction.eval(pt):
            pt = su2.model.sampler(rng)
        assert cert.witness_point == pt
        assert cert.witness_value == cert.obstruction.eval(pt) != 0
        points.add(pt)
    assert len(points) > 1 and default.witness_point not in points


def test_spot_checks_default_rng_is_seeded(su2):
    # with rng=None both draw from the model's sampler with a seeded rng
    first = jacobi_symbolic(su2.model, points=20)
    assert first == JacobiVerdict(True, False) == jacobi_symbolic(su2.model, points=20)
    assert multiplicativity_spotcheck(su2.model, pairs=5) == 0.0


# ---------------------------------------------------------------------------
# character-data fields and preservation
# ---------------------------------------------------------------------------


def test_field_from_character_data_su2(su2):
    H = field_from_character_data(su2.model, su2.left_chi, su2.right_chi)
    v = su2.model.vars
    z = Polynomial.variable(v, "z")
    t = Polynomial.variable(v, "t")
    assert list(H.components) == [Polynomial.zero(v), Polynomial.zero(v), -t, z]


def test_field_from_character_data_zero(su2):
    zero = PolyVectorField.zero(su2.model.vars)
    assert field_from_character_data(su2.model, zero, zero).is_zero()


def test_field_from_character_data_parabolic():
    b = catalog.build_model("sl2-parabolic", 1)
    H = b.horizontal_field()
    v = b.model.vars
    x = Polynomial.variable(v, "x")
    z = Polynomial.variable(v, "z")
    t = Polynomial.variable(v, "t")
    assert list(H.components) == [-z, x - t, Polynomial.zero(v), z]


def test_preservation_residual_su2_morse(su2):
    zero = su2.model.constant(0)
    res = preservation_residual(
        su2.model, su2.hamiltonian, zero, zero, su2.left_chi, su2.right_chi
    )
    assert res.is_zero()


def test_preservation_residual_elliptic_energy():
    b = catalog.build_model("sl2-elliptic", 1)
    zero = b.model.constant(0)
    res = preservation_residual(b.model, b.hamiltonian, zero, zero, b.left_chi, b.right_chi)
    assert res.is_zero()


def test_preservation_residual_toda_nonzero(toda):
    zero = toda.model.constant(0)
    res = preservation_residual(
        toda.model, toda.hamiltonian, zero, zero, toda.left_chi, toda.right_chi
    )
    assert not res.is_zero()
    assert res.eval(catalog.toda_singular_point(2)) == -15


def test_basic_function_checks(su2):
    assert basic_function_check(su2.model, su2.hamiltonian, su2.vertical_fields)
    assert basic_function_check(su2.model, su2.model.constant(3), su2.vertical_fields)
    x = Polynomial.variable(su2.model.vars, "x")
    assert not basic_function_check(su2.model, x, su2.vertical_fields)
    # left J3 applied to the x coordinate is -y/2
    y = Polynomial.variable(su2.model.vars, "y")
    assert su2.vertical_fields[0](x) == Fraction(-1, 2) * y


def test_elliptic_vertical_field_kills_energy():
    b = catalog.build_model("sl2-elliptic", 1)
    assert basic_function_check(b.model, b.hamiltonian, b.vertical_fields)


# ---------------------------------------------------------------------------
# evaluation and the Hessian
# ---------------------------------------------------------------------------


def test_evaluate_field_at_toda(toda):
    X = hamiltonian_vf(toda.model, toda.hamiltonian)
    for a in (Fraction(2), Fraction(3), Fraction(1, 2)):
        assert all(v == 0 for v in X.eval(catalog.toda_singular_point(a)))
    H = toda.horizontal_field()
    val = H(toda.hamiltonian).eval(catalog.toda_singular_point(2))
    assert val == -15


def test_evaluate_constant_term():
    v = ("x", "y")
    p = Polynomial.variable(v, "x") * 2 + 5
    assert p.eval((0, 0)) == 5


def test_hessian_su2_morse(su2):
    H = hessian_at(su2.model, su2.hamiltonian, (1, 0, 0, 0), su2.morse_frame)
    assert H == [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]


def test_hessian_one_dimensional():
    v = ("x",)
    M = PolynomialPoissonModel("line", v, {})
    x = Polynomial.variable(v, "x")
    frame = [PolyVectorField(v, [Polynomial.constant(v, 1)])]
    assert hessian_at(M, x * x, (0,), frame) == [[2]]


def test_hessian_noncritical_point_rejected(su2):
    with pytest.raises(ValueError, match="does not vanish"):
        hessian_at(
            su2.model,
            Polynomial.variable(su2.model.vars, "t"),
            (1, 0, 0, 0),
            su2.morse_frame,
        )


def test_hessian_indefinite_case():
    v = ("x", "y")
    M = PolynomialPoissonModel("plane", v, {})
    x = Polynomial.variable(v, "x")
    y = Polynomial.variable(v, "y")
    frame = [
        PolyVectorField(v, [Polynomial.constant(v, 1), Polynomial.zero(v)]),
        PolyVectorField(v, [Polynomial.zero(v), Polynomial.constant(v, 1)]),
    ]
    H = hessian_at(M, x * x - y * y, (0, 0), frame)
    assert H == [[2, 0], [0, -2]]
    from poishom import linalg

    assert linalg.det([[Fraction(c) for c in row] for row in H]) != 0


def test_hessian_rejects_a_point_off_the_variety(su2):
    # the origin is critical along the Morse frame, but su2 lives on the
    # unit sphere
    with pytest.raises(ValueError, match="off the variety: constraint 0"):
        hessian_at(su2.model, su2.hamiltonian, (0, 0, 0, 0), su2.morse_frame)


def test_hessian_refuses_a_frame_or_h_over_other_variables(su2):
    # a frame field over other variables used to end in an IndexError, and an
    # h over other variables was read as if it were over the model's
    m = su2.model
    other = ("p", "q", "r")
    foreign = PolyVectorField(other, [Polynomial.variable(other, "p")] * 3)
    with pytest.raises(ValueError, match="^frame field 1 is over different variables$"):
        hessian_at(m, su2.hamiltonian, m.base_point, [su2.morse_frame[0], foreign])
    renamed = Polynomial(("p", "q", "r", "s"), su2.hamiltonian.terms)
    with pytest.raises(ValueError, match="^hamiltonian over different variables$"):
        hessian_at(m, renamed, m.base_point, su2.morse_frame)


def _hessian_outcome(run):
    try:
        H = run()
    except (ValueError, AssertionError) as exc:
        return type(exc).__name__, str(exc)
    assert all(type(c) is Fraction for row in H for c in row)
    return "ok", H


@st.composite
def _hessian_problems(draw):
    """A random h, frame of 1-3 fields and point over 2-4 variables.  Three
    times in four h is shifted by a linear function so that the point is
    critical along the frame, with the gradient there a kernel vector w of
    the frame's and its brackets' values: not zero when there is one, and
    the Hessian symmetric."""
    n, m = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    names = _NAMES[:n]

    def poly(max_degree, max_terms):
        expo = st.tuples(*[st.integers(0, max_degree)] * n)
        return Polynomial(names, draw(st.dictionaries(expo, _small_coeffs, max_size=max_terms)))

    frame = [PolyVectorField(names, [poly(2, 2) for _ in names]) for _ in range(m)]
    h = poly(3, 4)
    point = draw(st.tuples(*[_starts] * n))
    critical = draw(st.integers(0, 3)) > 0
    if critical:
        rows = [V.eval(point) for V in frame]
        rows += [
            tuple(U(c).eval(point) - V(b).eval(point) for b, c in zip(U.components, V.components))
            for U, V in itertools.combinations(frame, 2)
        ]
        kernel = linalg.nullspace([list(r) for r in rows])
        w = [sum(draw(st.integers(-2, 2)) * v[l] for v in kernel) for l in range(n)]
        event(f"gradient {'nonzero' if any(w) else 'zero'}")
        grad = [h.diff(name).eval(point) for name in names]
        h = h - sum((Polynomial.variable(names, x) * (g - c) for x, g, c in zip(names, grad, w)),
                    Polynomial.zero(names))
    event(f"critical: {critical}")
    return PolynomialPoissonModel("random", names, {}), h, point, frame


@settings(max_examples=200, deadline=None)
@given(_hessian_problems())
def test_hessian_matches_composition_oracle(problem):
    # the product rule at the point gives the matrix, or the error, of
    # building V_j(h) and V_i(V_j(h)) as polynomials
    model, h, point, frame = problem
    want = _hessian_outcome(lambda: hessian_by_composition(h, point, frame))
    event(want[0])
    assert _hessian_outcome(lambda: hessian_at(model, h, point, frame)) == want


def test_hessian_multiplies_no_polynomial(su2, monkeypatch):
    calls = []
    mul = Polynomial.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    monkeypatch.setattr(Polynomial, "__rmul__", counted)
    v = ("x", "y")
    x, y = (Polynomial.variable(v, n) for n in v)
    # at (1, 1) the field y d/dx + x d/dy is (1, 1) and dh = (1, -1) kills
    # it without vanishing, so the field's derivatives enter
    h = x * y * y - 3 * y
    assert calls  # the wrapper counts
    calls.clear()
    plane = PolynomialPoissonModel("plane", v, {})
    assert hessian_at(plane, h, (1, 1), [PolyVectorField(v, [y, x])]) == [[6]]
    assert hessian_at(su2.model, su2.hamiltonian, (1, 0, 0, 0), su2.morse_frame) == [
        [Fraction(1, 2), 0], [0, Fraction(1, 2)]
    ]
    assert calls == []


# ---------------------------------------------------------------------------
# numerical spot checks
# ---------------------------------------------------------------------------


def test_multiplicativity_su2_and_hyperbolic():
    for name in ("su2", "sl2-hyperbolic"):
        bundle = catalog.build_model(name, 1)
        res = multiplicativity_spotcheck(bundle.model, pairs=100, rng=random.Random(1))
        assert res < 1e-10


def test_multiplicativity_zero_bracket():
    v = ("x", "y")
    names = list(v) + ["x'", "y'"]
    mult = [Polynomial.variable(names, "x") + Polynomial.variable(names, "x'"),
            Polynomial.variable(names, "y") + Polynomial.variable(names, "y'")]
    M = PolynomialPoissonModel(
        "abelian",
        v,
        {},
        base_point=(0, 0),
        poisson_lie=True,
        group_mult=mult,
        sampler=lambda rng: (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))),
    )
    assert multiplicativity_spotcheck(M, pairs=10, rng=random.Random(0)) == 0.0


def test_multiplicativity_residual_below_float_range_is_nonzero():
    # {x, y} = eps x y is not multiplicative for additive multiplication; the
    # residual eps (x y' + x' y) lies far below the smallest positive float
    v = ("x", "y")
    names = list(v) + ["x'", "y'"]
    x, y = (Polynomial.variable(v, n) for n in v)
    mult = [Polynomial.variable(names, "x") + Polynomial.variable(names, "x'"),
            Polynomial.variable(names, "y") + Polynomial.variable(names, "y'")]
    M = PolynomialPoissonModel(
        "perturbed-abelian",
        v,
        {(0, 1): Fraction(1, 10**400) * x * y},
        base_point=(0, 0),
        poisson_lie=True,
        group_mult=mult,
        sampler=lambda rng: (Fraction(rng.randint(1, 3)), Fraction(rng.randint(1, 3))),
    )
    assert multiplicativity_spotcheck(M, pairs=3, rng=random.Random(0)) > 0.0


@pytest.mark.parametrize("count", [0, -3])
def test_spot_checks_refuse_to_check_nothing(su2, count):
    # zero pairs or points would report a pass without a single evaluation
    with pytest.raises(ValueError, match="pairs must be at least 1"):
        multiplicativity_spotcheck(su2.model, pairs=count)
    with pytest.raises(ValueError, match="points must be at least 1"):
        jacobi_symbolic(su2.model, points=count)


@pytest.mark.parametrize("count", [2.5, True, 0])
def test_spot_checks_check_the_count_before_any_work(su2, monkeypatch, count):
    # a float or a bool is not a count: 2.5 used to expand every Jacobiator
    # (or plan both evaluators) before range() refused it, and True ran as 1
    work = []
    monkeypatch.setattr(coord, "integer_table", lambda *args: work.append(args))
    want = "must be at least 1, got 0" if type(count) is int else f"must be an int >= 1, got {count!r}"
    with pytest.raises(ValueError, match=re.escape(f"pairs {want}")):
        multiplicativity_spotcheck(su2.model, pairs=count)
    with pytest.raises(ValueError, match=re.escape(f"points {want}")):
        jacobi_symbolic(su2.model, points=count)
    assert work == []


def test_certify_differentiates_only_contained_variables(toda, monkeypatch):
    # toda-n3's 27 table entries and 9 product entries hold 54 (entry,
    # variable) pairs each; the parent differentiated 27 entries in all 9
    # variables (243 calls) and the product in all 18 (162 calls)
    results = []

    def counting(terms, i):
        results.append(diff_terms(terms, i))
        return results[-1]

    monkeypatch.setattr(coord, "diff_terms", counting)
    assert jacobi_symbolic(toda.model, rng=random.Random(1), points=2).ok
    assert len(results) == 54 and all(results)
    results.clear()
    assert multiplicativity_spotcheck(toda.model, pairs=1, rng=random.Random(1)) == 0.0
    assert len(results) == 54 and all(results)


GROUP_MODEL_NAMES = ("su2", "sl2-hyperbolic", "sl2-elliptic", "sl2-parabolic", "toda-n3")


def _perturbed(model, brackets=None, group_mult=None):
    return PolynomialPoissonModel(
        "perturbed", model.vars, brackets or model._table, constraints=model.constraints,
        base_point=model.base_point, poisson_lie=True,
        group_mult=group_mult or model.group_mult, sampler=model.sampler,
    )


@pytest.mark.parametrize("name", GROUP_MODEL_NAMES)
def test_multiplicativity_matches_the_generated_code_oracle(name):
    # the int-planned product and Jacobians give the residuals of the
    # compiled form bit for bit: on the models, where every one is 0, and
    # with one bracket or product coefficient changed, where they are not
    for eta in (1, 2, Fraction(1, 3), Fraction(-5, 2)):
        model = catalog.build_model(name, eta).model
        v = model.vars
        # x_k**2 for a coordinate that is 0 at the identity, so the bracket
        # still vanishes there
        k = next(i for i, c in enumerate(model.base_point) if c == 0)
        key = next(iter(model._table))
        bump = Polynomial.monomial(v, [2 if i == k else 0 for i in range(len(v))])
        brackets = {**model._table, key: model._table[key] + bump}
        first = model.group_mult[0]
        e, c = next(iter(first.terms.items()))
        product = [Polynomial(first.vars, {**first.terms, e: c + 1}), *model.group_mult[1:]]
        perturbed = (_perturbed(model, brackets=brackets), _perturbed(model, group_mult=product))
        for m in (model, *perturbed):
            got = multiplicativity_spotcheck(m, pairs=3, rng=random.Random(9))
            assert got == multiplicativity_spotcheck_by_codegen(m, pairs=3, rng=random.Random(9))
            assert (got > 0.0) == (m is not model), (name, eta)


def test_exact_evaluator_matches_the_generated_code_oracle_on_model_lists():
    # the table and product-and-Jacobian lists of every model give the ints
    # and the Q of the compiled form
    for name in catalog.MODEL_NAMES:
        model = catalog.build_model(name, Fraction(3, 2)).model
        lists = [(model.vars, [model._table[key] for key in model._table])]
        if model.group_mult is not None:
            mvars = model.group_mult[0].vars
            diffs = [m.diff(w) for m in model.group_mult for w in mvars]
            lists.append((mvars, [*model.group_mult, *diffs]))
        rng = random.Random(name)
        for variables, polys in lists:
            planned = exact_evaluator(variables, polys)
            compiled = exact_evaluator_by_codegen(variables, polys)
            for _ in range(3):
                point = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in variables]
                assert planned(*point) == compiled(*point), name


def test_exact_checks_compile_no_code(workloads, code_generation):
    # one certify round's multiplicativity ops, and a Jacobi check whose
    # Jacobiators are not zero, evaluate their exact polynomials without
    # compiling or executing any generated code
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    ops = [
        op for op in workloads.setup_certify(7, reference) if op.label.endswith("|multiplicativity")
    ]
    inputs = [op.prepare() for op in ops]
    v = ("x", "y", "z")
    x, y, z = (Polynomial.variable(v, n) for n in v)
    bad = PolynomialPoissonModel(
        "perturbed-sphere", v, {(0, 1): z + Fraction(1, 7) * x, (1, 2): x, (0, 2): -1 * y},
        constraints=[x * x + y * y + z * z - 1], sampler=_sphere_point,
    )
    with code_generation() as generated:
        results = [op.run(arg) for op, arg in zip(ops, inputs)]
        verdict = jacobi_symbolic(bad, rng=random.Random(3), points=5)
    assert generated == []
    assert len(ops) == 5 and all(op.check(r) for op, r in zip(ops, results))
    assert not verdict.ok and not verdict.symbolic


def test_model_rejects_a_base_point_of_the_wrong_length():
    v = ("x", "y")
    x, y = (Polynomial.variable(v, n) for n in v)
    for point in ((0,), (0, 0, 0)):
        with pytest.raises(ValueError, match="base point has"):
            PolynomialPoissonModel("short", v, {(0, 1): x * y}, base_point=point)
    assert PolynomialPoissonModel("ok", v, {(0, 1): x * y}, base_point=(0, 0)).base_point == (0, 0)


def test_model_base_point_constraint_enforced():
    v = ("x", "y")
    x, y = (Polynomial.variable(v, n) for n in v)
    circle = x * x + y * y - Polynomial.constant(v, 1)
    with pytest.raises(ValueError, match="base point violates a constraint"):
        PolynomialPoissonModel("off", v, {(0, 1): x}, constraints=[circle], base_point=(1, 1))
    on = PolynomialPoissonModel("on", v, {(0, 1): x}, constraints=[circle], base_point=(1, 0))
    assert on.constraints == (circle,)


def test_poisson_lie_flag_enforced_at_base():
    v = ("x", "y")
    x = Polynomial.variable(v, "x")
    one = Polynomial.constant(v, 1)
    with pytest.raises(ValueError, match="bracket does not vanish at the base point"):
        PolynomialPoissonModel("bad", v, {(0, 1): one}, base_point=(0, 0), poisson_lie=True)
    # a bracket vanishing at the base point, or a model that is not Poisson-Lie
    PolynomialPoissonModel("ok", v, {(0, 1): x}, base_point=(0, 0), poisson_lie=True)
    PolynomialPoissonModel("plain", v, {(0, 1): one}, base_point=(0, 0))


def test_multiplicativity_requires_data(comp):
    with pytest.raises(ValueError):
        multiplicativity_spotcheck(comp.model, pairs=1, rng=random.Random(0))


@pytest.mark.parametrize("eta", [1, 2, Fraction(1, 3), Fraction(-5, 2)])
def test_linearization_all_calibrated_models(eta):
    # the exact derivative of the table at the identity is the pushed
    # cocommutator: every residual is exactly zero
    for name in verify.CHECKED_MODELS:
        bundle = catalog.build_model(name, eta)
        res = linearization_vs_cocommutator(
            bundle.model, bundle.delta_images, bundle.frame, bundle.cocommutator_sign
        )
        assert res == 0.0, (name, eta)


def test_linearization_sees_a_residual_below_any_float_step(su2):
    # one cocommutator coefficient off by 10**-30: the residual is exact, so
    # it is nonzero, and reported at its own magnitude
    images = [dict(image) for image in su2.delta_images]
    key = next(iter(images[0]))
    images[0][key] += Fraction(1, 10**30)
    res = linearization_vs_cocommutator(su2.model, images, su2.frame, su2.cocommutator_sign)
    assert 0.0 < res < 1e-29


def test_linearization_rejects_mismatched_shapes(su2):
    images, frame = su2.delta_images, su2.frame
    long_frame = (frame[0] + (0,),) + frame[1:]  # a direction with an extra coordinate
    for imgs, fr in ((images, long_frame), (images[:2], frame), (images + ({},), frame)):
        with pytest.raises(ValueError, match="one delta image per frame direction"):
            linearization_vs_cocommutator(su2.model, imgs, fr, su2.cocommutator_sign)


def test_linearization_wrong_sign_fails(su2):
    res = linearization_vs_cocommutator(
        su2.model, su2.delta_images, su2.frame, -su2.cocommutator_sign
    )
    assert res > 1e-3


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------


def test_rk4_flow_canonical_oscillator():
    b = catalog.build_model("canonical2d")
    trace = rk4_flow(b.model, b.hamiltonian, (1, 0), T=10.0, dt=1e-3)
    assert abs(trace.final_div_integral()) < 1e-12


def test_rk4_flow_compartmental(comp):
    trace = rk4_flow(comp.model, comp.hamiltonian, (1, 1, 1), T=10.0, dt=1e-3)
    assert abs(trace.final_div_integral()) < 1e-9
    assert trace.max_drift() == 0.0
    assert len(trace.times) == 10001


def test_rk4_flow_su2_morse(su2):
    trace = rk4_flow(su2.model, su2.hamiltonian, su2.flow_start, T=10.0, dt=1e-3)
    assert abs(trace.final_div_integral()) < 1e-8
    assert trace.max_drift() < 1e-10


def test_rk4_rejects_bad_start(su2):
    with pytest.raises(ValueError):
        rk4_flow(su2.model, su2.hamiltonian, (1, 1, 0, 0), T=1.0, dt=1e-3)
    # a start point of the wrong length is rejected, not truncated
    with pytest.raises(ValueError, match="length"):
        rk4_flow(su2.model, su2.hamiltonian, (0, 0, 0), T=1.0, dt=1e-3)


@pytest.mark.parametrize(
    "T, dt, match",
    [
        (1.0, -0.1, "dt must be a finite positive number, got -0.1"),
        (-1.0, 0.1, "T must be a finite positive number, got -1.0"),
        (1.0, math.nan, "dt must be a finite positive number, got nan"),
        (0.04, 0.1, "do not give a finite number of steps >= 1"),  # round(0.4) = 0
        (1e308, 1e-300, "do not give a finite number of steps >= 1"),  # T / dt = inf
    ],
)
def test_rk4_flow_rejects_bad_step_arguments(T, dt, match):
    # a non-positive or non-finite T or dt, or one that gives no step, was a
    # silent one-row trace (or a NaN-to-int conversion error)
    b = catalog.build_model("canonical2d")
    with pytest.raises(ValueError, match=re.escape(match)):
        rk4_flow(b.model, b.hamiltonian, (1, 0), T=T, dt=dt)


def _rk4_fresh_simpson(model, h, x0, steps, dt, log_density):
    """rk4_flow's state and divergence integral, with the divergence at the
    start of every step evaluated afresh instead of carried over, and every
    polynomial through the test-side interpretive loop."""
    X = hamiltonian_vf(model, h)
    field, div = X.components, divergence(model, X, log_density)

    def step(state, hstep):
        k1 = eval_field(field, state)
        k2 = eval_field(field, [s + 0.5 * hstep * k for s, k in zip(state, k1)])
        k3 = eval_field(field, [s + 0.5 * hstep * k for s, k in zip(state, k2)])
        k4 = eval_field(field, [s + hstep * k for s, k in zip(state, k3)])
        return [
            s + hstep / 6.0 * (a + 2 * b + 2 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)
        ]

    x, acc, out = [float(c) for c in x0], 0.0, [0.0]
    for _ in range(steps):
        f0 = eval_float(div, x)
        xm = step(x, dt / 2.0)
        fm = eval_float(div, xm)
        x = step(xm, dt / 2.0)
        acc += dt / 6.0 * (f0 + 4.0 * fm + eval_float(div, x))
        out.append(acc)
    return x, out


def test_rk4_carried_divergence_is_bit_identical(comp):
    # the catalog flows are divergence-free; a log density, and the affine
    # bracket {x, y} = x with h = y + x^2 (divergence -1 - 2x), are not
    v = ("x", "y")
    x, y = (Polynomial.variable(v, n) for n in v)
    affine = PolynomialPoissonModel("affine", v, {(0, 1): x})
    cases = [
        (comp.model, comp.hamiltonian, (1, 1, 1), Polynomial.variable(comp.model.vars, "x2")),
        (affine, y + x * x, (1, 0), None),
    ]
    for model, h, x0, rho in cases:
        trace = rk4_flow(model, h, x0, T=0.2, dt=1e-3, log_density=rho)
        state, div_int = _rk4_fresh_simpson(model, h, x0, 200, 1e-3, rho)
        assert trace.states[-1] == state and trace.div_integral == div_int
        assert div_int[-1] != 0.0


def _loop_source(generated) -> tuple[str, str]:
    """The prologue and the step-loop body of the one step loop compiled in
    ``generated`` (``code_generation``'s record)."""
    (source,) = [args[0] for args in generated if args[1:2] == ("<rk4_loop>",)]
    prologue, body = source.split("    for k in range(1, steps + 1):\n")
    return prologue, body


def _summed(source: str) -> Counter:
    """How often the source sums into each local: the lines ``name = 0.0 +
    ...`` and ``name = 0.0 - ...``."""
    return Counter(re.findall(r"^ *(\w+) = 0\.0 [-+] ", source, re.M))


@pytest.mark.parametrize(
    "case, log_density, at_start, per_step",
    [
        ("compartmental", None, {}, {}),  # the field only
        ("canonical2d", None, {}, {}),
        ("su2", None, {"r0": 1}, {"r0": 1}),  # the constraint, after each step
        ("compartmental", "x2", {"f0": 1}, {"fm": 1, "f1": 1}),  # div + X(x2) is not zero
    ],
)
def test_rk4_flow_skips_a_zero_divergence(code_generation, case, log_density, at_start, per_step):
    # a zero divergence is never summed: an unconstrained flow sums only its
    # field, 8 times a step (2 half-steps of 4 stages), and su2, whose field
    # binds x**2 and y**2, sums its constraint once at the start and once a
    # step, binding no power at the midpoint
    coord._rk4_loop.cache_clear()
    b = catalog.build_model(case, 1)
    rho = None if log_density is None else Polynomial.variable(b.model.vars, log_density)
    with code_generation() as generated:
        trace = rk4_flow(b.model, b.hamiltonian, b.flow_start, T=0.01, dt=1e-3, log_density=rho)
    assert len(trace.div_integral) == 11
    prologue, body = _loop_source(generated)
    moving = [f"{s}{i}" for i, c in enumerate(hamiltonian_vf(b.model, b.hamiltonian).components)
              if not c.is_zero() for s in "abcd"]
    assert _summed(body) == Counter({**dict.fromkeys(moving, 2), **per_step})
    assert _summed(prologue) == Counter(at_start)
    if case == "su2":
        # x**2 and y**2 at the state x: in stage a of each half-step and in
        # the check after the step, none at the midpoint
        assert len(re.findall(r"= x[01]\*\*2$", body, re.M)) == 2 + 2 + 2


def _flat(key):
    for part in key:
        if type(part) is tuple:
            yield from _flat(part)
        else:
            yield part


def test_rk4_loop_cache_keys_are_shape_only(monkeypatch):
    # the cached step loops are keyed by shape (frozen mask, exponents, signs
    # of unit coefficients, repeats), never by model data: the key holds only
    # ints, bools and tuples, no float or Fraction
    keys, loop = [], coord._rk4_loop
    monkeypatch.setattr(coord, "_rk4_loop", lambda *key: keys.append(key) or loop(*key))
    # the last run has a divergence, div + X(x2)
    for case, density in (("su2", None), ("compartmental", None), ("canonical2d", None),
                          ("compartmental", "x2")):
        b = catalog.build_model(case, Fraction(3, 2))
        rho = density and Polynomial.variable(b.model.vars, density)
        rk4_flow(b.model, b.hamiltonian, b.flow_start, T=0.01, dt=1e-3, log_density=rho)
    assert [key[0] for key in keys] == [
        (False, False, True, True), (False, False, False), (False, False), (False, False, False)
    ]
    assert [key[-1] for key in keys] == [True, True, True, False]
    for key in keys:
        assert {type(v) for v in _flat(key)} <= {int, bool}, key


def test_rk4_flow_shares_one_loop_across_coefficients(code_generation):
    # su2 at eta 3/2 and at eta 3 is one shape: the second run compiles
    # nothing, and each trace is the list-based loop's bit for bit
    coord._rk4_loop.cache_clear()
    for eta, compiled in ((Fraction(3, 2), 1), (Fraction(3), 0)):
        su2 = catalog.build_model("su2", eta)
        x0 = su2.flow_start
        want = _flow_outcome(lambda: rk4_reference(su2.model, su2.hamiltonian, x0, 0.2, 1e-3))
        with code_generation() as generated:
            got = _rk4_outcome(su2.model, su2.hamiltonian, x0, 0.2, 1e-3)
        assert len(generated) == 2 * compiled  # one compile and one exec
        assert want[0] == "ok" and got == want
    assert coord._rk4_loop.cache_info().currsize == 1


def test_rk4_constraint_drift_abort():
    # flow that leaves the "variety" x = 0 immediately
    v = ("x", "y")
    x = Polynomial.variable(v, "x")
    y = Polynomial.variable(v, "y")
    M = PolynomialPoissonModel(
        "drift", v, {(0, 1): Polynomial.constant(v, 1)}, constraints=[x]
    )
    with pytest.raises(ConstraintDriftError):
        rk4_flow(M, y, (0, 0), T=1.0, dt=1e-2)


def _flow_outcome(run):
    """Every trace row as float.hex strings, or the abort raised."""
    try:
        times, states, div_int, drifts = run()
    except (ValueError, ConstraintDriftError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    rows = zip(times, states, div_int, drifts)
    return "ok", [[v.hex() for v in (t, *x, dv, cd)] for t, x, dv, cd in rows]


def _rk4_outcome(model, h, x0, T, dt, **kw):
    def run():
        tr = rk4_flow(model, h, x0, T=T, dt=dt, **kw)
        return tr.times, tr.states, tr.div_integral, tr.constraint_drift

    return _flow_outcome(run)


_NAMES = ("a", "b", "c", "d")
_small_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# dyadic coordinates, so a constraint q - q(x0) is exactly 0.0 at the start
_starts = st.integers(-8, 8).map(lambda k: Fraction(k, 4))


@st.composite
def _flow_problems(draw):
    n = draw(st.integers(1, 4))
    names = _NAMES[:n]

    def poly(max_degree, max_terms):
        expo = st.tuples(*[st.integers(0, max_degree)] * n)
        return Polynomial(names, draw(st.dictionaries(expo, _small_coeffs, max_size=max_terms)))

    # a Casimir coordinate brackets to zero with every other, so its field
    # component is the zero polynomial and the step loop holds it frozen
    casimirs = draw(st.sets(st.integers(0, n - 1), max_size=n)) if draw(st.booleans()) else set()
    brackets = {
        (i, j): poly(2, 2) if not casimirs & {i, j} else Polynomial(names)
        for i in range(n) for j in range(i + 1, n)
    }
    x0 = draw(st.tuples(*[_starts] * n))
    constraints = [q - q.eval(x0) for q in (poly(2, 3) for _ in range(draw(st.integers(0, 2))))]
    model = PolynomialPoissonModel("random", names, brackets, constraints=constraints)
    h = poly(3, 4)
    log_density = poly(2, 2) if draw(st.booleans()) else None
    dt = draw(st.sampled_from([1e-3, 0.01, 0.05, 0.1, 0.3, 1.0, 3.0]))
    steps = draw(st.integers(0, 40))
    tolerance = draw(st.sampled_from([1e-6, 1e-2, math.inf]))
    # a zero start coordinate may come in as -0.0
    x0 = tuple(-0.0 if c == 0 and draw(st.booleans()) else c for c in x0)
    return model, h, x0, steps * dt, dt, log_density, tolerance


@settings(max_examples=200, deadline=None)
@given(_flow_problems())
def test_rk4_flow_matches_list_based_reference(problem):
    # every trace row bit for bit, and the same abort (non-finite state at
    # step k, drift at step k, overflowing power) with the same message
    model, h, x0, T, dt, rho, tol = problem
    kw = dict(log_density=rho, drift_tolerance=tol)
    want = _flow_outcome(lambda: rk4_reference(model, h, x0, T, dt, **kw))
    event(want[1].split(" at step")[0] if want[0] == "ValueError" else want[0])
    event(f"frozen coordinates: {sum(c.is_zero() for c in hamiltonian_vf(model, h).components)}")
    assert _rk4_outcome(model, h, x0, T, dt, **kw) == want


def _casimir_model(constraint=None):
    """{a, b} = c + c**2 on (a, b, c): c is a Casimir, frozen in every flow,
    and its first power and its square enter the field.  ``constraint``, a
    function of the coordinates a, b, c, gives the model's one constraint."""
    v = ("a", "b", "c")
    a, b, c = (Polynomial.variable(v, name) for name in v)
    constraints = [] if constraint is None else [constraint(a, b, c)]
    model = PolynomialPoissonModel("casimir", v, {(0, 1): c + c * c}, constraints=constraints)
    return model, a * a + b * b * b


@pytest.mark.parametrize(
    "extra",
    [
        {},
        {"log_density": lambda a, b, c: a},  # the divergence X(a) is not zero
        {"constraint": lambda a, b, c: c * c * c},  # a frozen power, bound once
    ],
    ids=["plain", "density", "constraint"],
)
@pytest.mark.parametrize(
    "frozen_start, kind",
    [(-0.0, "ok"), (math.inf, "ValueError"), (-math.inf, "ValueError"), (math.nan, "ValueError")],
    ids=["minus-zero", "inf", "minus-inf", "nan"],
)
def test_rk4_flow_frozen_start_matches_reference(frozen_start, kind, extra):
    # a frozen -0.0 is recorded as 0.0 from step 1 on, and a frozen inf or
    # nan aborts at step 1 (or, where the constraint is inf, at the start),
    # as in the list-based loop
    model, h = _casimir_model(extra.get("constraint"))
    rho = extra["log_density"](*map(model.variable, model.vars)) if "log_density" in extra else None
    x0 = (0.0, 0.5, frozen_start)
    want = _flow_outcome(lambda: rk4_reference(model, h, x0, 0.05, 0.01, log_density=rho))
    assert want[0] == kind
    assert _rk4_outcome(model, h, x0, 0.05, 0.01, log_density=rho) == want


def test_rk4_flow_violated_start_raises_before_a_frozen_power_overflows():
    # c**2 overflows at c = 1e200, but only the field evaluates it: the start
    # check comes first and raises ValueError
    model, h = _casimir_model(lambda a, b, c: a)
    x0 = (1.0, 0.5, 1e200)
    want = _flow_outcome(lambda: rk4_reference(model, h, x0, 0.05, 0.01))
    assert want == ("ValueError", "initial point violates the constraints")
    assert _rk4_outcome(model, h, x0, 0.05, 0.01) == want


def test_rk4_flow_keeps_the_midpoint_call_for_a_power_the_field_lacks():
    # a' = -C a, b' = C b: a linear field that grows b by about 1e250 a
    # half-step.  The constraint b**4 - 1 overflows at the first midpoint;
    # the field evaluates no power of b, so only the midpoint's b**4
    # raises: without it the step would end on b = inf and abort on a
    # non-finite state
    v = ("a", "b")
    a, b = (Polynomial.variable(v, name) for name in v)
    model = PolynomialPoissonModel(
        "linear", v, {(0, 1): Polynomial.constant(v, 1)}, constraints=[b**4 - 1]
    )
    h = -(10**63) * a * b
    kw = dict(drift_tolerance=math.inf)
    want = _flow_outcome(lambda: rk4_reference(model, h, (0, 1), 2.0, 1.0, **kw))
    assert want[0] == "OverflowError"
    assert _rk4_outcome(model, h, (0, 1), 2.0, 1.0, **kw) == want


def test_rk4_flow_binds_a_constraint_power_at_the_midpoint_beside_a_divergence():
    # the linear field above with the log density a: the divergence -C a is
    # not zero, so the midpoint sums it, and it powers no b either.  Only the
    # constraint's b**4, bound at the midpoint beside that sum, overflows
    # there; without it the step would end on b = inf
    v = ("a", "b")
    a, b = (Polynomial.variable(v, name) for name in v)
    model = PolynomialPoissonModel(
        "linear", v, {(0, 1): Polynomial.constant(v, 1)}, constraints=[b**4 - 1]
    )
    h = -(10**63) * a * b
    kw = dict(log_density=a, drift_tolerance=math.inf)
    assert not divergence(model, hamiltonian_vf(model, h), a).is_zero()
    want = _flow_outcome(lambda: rk4_reference(model, h, (0, 1), 2.0, 1.0, **kw))
    assert want[0] == "OverflowError"
    assert _rk4_outcome(model, h, (0, 1), 2.0, 1.0, **kw) == want


@pytest.mark.parametrize(
    "extra",
    [
        {},
        {"log_density": lambda a, b, c: a},
        {"constraint": lambda a, b, c: c * c * c},
    ],
    ids=["plain", "density", "constraint"],
)
@pytest.mark.parametrize("frozen_start", [1e-200, -3e-170, 1e60, -2e55, 1e160, -1e160])
def test_rk4_flow_frozen_powers_match_reference(frozen_start, extra):
    # a frozen coordinate's powers are bound once a run, where the list-based
    # loop powers it at every evaluation: the same bits, or the same abort,
    # an OverflowError of a frozen power included
    model, h = _casimir_model(extra.get("constraint"))
    rho = extra["log_density"](*map(model.variable, model.vars)) if "log_density" in extra else None
    x0 = (0.0, 0.5, frozen_start)
    want = _flow_outcome(lambda: rk4_reference(model, h, x0, 0.05, 0.01, log_density=rho))
    if abs(frozen_start) > 1e100:  # (c + c**2) overflows in the field or the check
        assert want[0] == "OverflowError"
    assert _rk4_outcome(model, h, x0, 0.05, 0.01, log_density=rho) == want


def test_rk4_loop_binds_frozen_powers_once(code_generation):
    # c is frozen: the prologue powers it once per exponent, and the step
    # loop powers only the moving a and b
    model, h = _casimir_model(lambda a, b, c: c * c * c - Fraction(1, 64))
    a = model.variable("a")
    coord._rk4_loop.cache_clear()
    with code_generation() as generated:
        trace = rk4_flow(model, h, (0.0, 0.5, 0.25), 0.05, 0.01, log_density=a)
    prologue, body = _loop_source(generated)
    assert sorted(re.findall(r"x2\*\*\d+", prologue)) == ["x2**2", "x2**3"]
    assert {base for base in re.findall(r"(\w+)\*\*\d+", body)} <= {"x0", "x1", "y0", "y1"}
    want = rk4_reference(model, h, (0.0, 0.5, 0.25), 0.05, 0.01, log_density=a)
    assert _flow_outcome(lambda: want) == _flow_outcome(
        lambda: (trace.times, trace.states, trace.div_integral, trace.constraint_drift)
    )


_units = st.sampled_from([1, -1])
_non_units = st.sampled_from(
    sorted({Fraction(p, q) for p in range(-12, 13) for q in range(1, 5)} - {0, 1, -1})
)


@st.composite
def _same_shape_problems(draw):
    """Two flows whose loops may share one shape: h is the last coordinate,
    so the field is minus the brackets {x_j, x_last}, drawn with 1, -1 and
    other coefficients.  The second flow keeps each unit coefficient of the
    first (brackets and constraint) and redraws the others."""
    n = draw(st.integers(2, 4))
    names = _NAMES[:n]
    expo = st.tuples(*[st.integers(0, 2)] * n)
    terms = st.dictionaries(expo, st.one_of(_units, _non_units), min_size=1, max_size=3)
    brackets = [draw(terms) for _ in range(n - 1)]
    constraint = draw(st.one_of(st.none(), terms))
    x0 = draw(st.tuples(*[_starts] * n))
    dt = draw(st.sampled_from([1e-3, 0.01, 0.1, 1.0]))
    steps = draw(st.integers(1, 20))

    def redraw(coefficients):
        return {e: c if abs(c) == 1 else draw(_non_units) for e, c in coefficients.items()}

    def flow(bracket_terms, constraint_terms):
        table = {(j, n - 1): Polynomial(names, t) for j, t in enumerate(bracket_terms)}
        constraints = []
        if constraint_terms is not None:
            q = Polynomial(names, constraint_terms)
            constraints.append(q - q.eval(x0))
        model = PolynomialPoissonModel("shape", names, table, constraints=constraints)
        return model, Polynomial.variable(names, names[-1])

    second = None if constraint is None else redraw(constraint)
    return flow(brackets, constraint), flow([redraw(t) for t in brackets], second), x0, steps * dt, dt


@settings(max_examples=100, deadline=None)
@given(_same_shape_problems())
def test_rk4_flow_same_shape_problems_match_reference(problems):
    # two runs of one cached loop, each with its own coefficients, give the
    # list-based loop's traces and aborts bit for bit: the loop keeps no
    # coefficient of an earlier run
    first, second, x0, T, dt = problems
    keys, loop = [], coord._rk4_loop
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coord, "_rk4_loop", lambda *key: keys.append(key) or loop(*key))
        got = [_rk4_outcome(model, h, x0, T, dt, drift_tolerance=math.inf) for model, h in (first, second)]
    assume(keys[0] == keys[1])
    event("zero divergence" if keys[0][-1] else "divergence")
    event(f"first flow: {got[0][0]}")
    for (model, h), outcome in zip((first, second), got):
        assert outcome == _flow_outcome(
            lambda: rk4_reference(model, h, x0, T, dt, drift_tolerance=math.inf)
        )


def test_rk4_flow_su2_from_a_signed_zero_start():
    # z and t are frozen; z starts at -0.0 and is 0.0 from step 1 on
    su2 = catalog.build_model("su2", 1)
    x0 = (1.0, 0.0, -0.0, 0.0)
    want = _flow_outcome(lambda: rk4_reference(su2.model, su2.hamiltonian, x0, 0.1, 1e-3))
    assert want[0] == "ok" and want[1][1][3] == (0.0).hex()
    assert _rk4_outcome(su2.model, su2.hamiltonian, x0, 0.1, 1e-3) == want


@pytest.mark.parametrize(
    "case, T, dt, kind",
    [
        ("canonical2d", 10000, 10.0, "ValueError"),  # nan from step 116 on
        ("compartmental", 10000, 10.0, "ValueError"),  # +-inf from step 85 on
        ("su2", 1000, 100.0, "OverflowError"),  # float overflow in the first step
        ("su2", 200, 3.5, "ConstraintDriftError"),  # drift past 1e-6 at step 5
        ("su2", 2, 1e-3, "ok"),
    ],
)
def test_rk4_flow_aborts_like_reference(case, T, dt, kind):
    b = catalog.build_model(case, 1)
    want = _flow_outcome(lambda: rk4_reference(b.model, b.hamiltonian, b.flow_start, T, dt))
    assert want[0] == kind
    assert _rk4_outcome(b.model, b.hamiltonian, b.flow_start, T, dt) == want


def test_flow_trace_csv(comp):
    trace = rk4_flow(comp.model, comp.hamiltonian, (1, 1, 1), T=0.01, dt=1e-3)
    lines = trace.csv().strip().splitlines()
    assert lines[0] == "t,x1,x2,x3,divint,constraint_drift"
    assert len(lines) == 12
    cells = lines[1].split(",")
    assert len(cells) == 6 and cells[0] == "0"


def test_flow_trace_write_csv_streams_the_csv_lines(su2):
    # write_csv writes csv()'s bytes, one line per write, header first
    trace = rk4_flow(su2.model, su2.hamiltonian, su2.flow_start, T=0.01, dt=1e-3)
    writes = []

    class Sink:
        def write(self, text):
            writes.append(text)

    trace.write_csv(Sink())
    assert "".join(writes) == trace.csv()
    assert len(writes) == 1 + len(trace.times)
    assert all(line.count("\n") == 1 and line.endswith("\n") for line in writes)


def test_divergence_matches_monodromy_log_volume(comp):
    """Variational cross-check: the accumulated divergence equals the log of
    the determinant of the propagated parallelepiped."""
    import math

    model, h = comp.model, comp.hamiltonian
    field = hamiltonian_vf(model, h)
    n = model.dim
    jac = [[c.diff(v) for v in model.vars] for c in field.components]
    rho = Polynomial.variable(model.vars, "x2")  # nontrivial density
    div = divergence(model, field, rho)

    def rhs(state):
        x = state[:n]
        m = [state[n + i * n:n + (i + 1) * n] for i in range(n)]
        dx = eval_field(field.components, x)
        jx = [[eval_float(jac[i][j], x) for j in range(n)] for i in range(n)]
        dm = [[sum(jx[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        return dx + [dm[i][j] for i in range(n) for j in range(n)]

    state = [1.0, 1.0, 1.0] + [1.0 if i == j else 0.0 for i in range(n) for j in range(n)]
    dt, steps = 1e-3, 2000
    acc = 0.0
    for _ in range(steps):
        f0 = eval_float(div, state[:n])
        k1 = rhs(state)
        k2 = rhs([s + 0.5 * dt * k for s, k in zip(state, k1)])
        k3 = rhs([s + 0.5 * dt * k for s, k in zip(state, k2)])
        k4 = rhs([s + dt * k for s, k in zip(state, k3)])
        state = [
            s + dt / 6.0 * (a + 2 * b + 2 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)
        ]
        acc += 0.5 * dt * (f0 + eval_float(div, state[:n]))
    m = [state[n + i * n:n + (i + 1) * n] for i in range(n)]
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    # weight the volume by the density e^rho: log-volume drift is
    # log det M + rho(x(T)) - rho(x(0))
    x0 = [1.0, 1.0, 1.0]
    drift = math.log(abs(det)) + state[1] - x0[1]
    assert abs(acc - drift) < 1e-5


# ---------------------------------------------------------------------------
# exact identities against the formulas they replaced
# ---------------------------------------------------------------------------
#
# jacobi_symbolic reads each Jacobiator off the coordinate fields X_{x_i}
# (components Pi[i][l]), preservation_residual off the horizontal field with
# log density sigma, and multiplicativity_spotcheck off the upper triangle of
# an antisymmetric residual.  The references below are the nested-bracket,
# pairing and full-matrix formulas they replaced; every result must agree
# exactly, including the first violating triple and the float magnitude.


def _random_poly(rng, variables, terms=3, degree=2):
    out = {}
    for _ in range(terms):
        e = [0] * len(variables)
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(len(variables))] += 1
        out[tuple(e)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Polynomial(variables, out)


def _jacobi_nested(model, rng=None, points=100):
    """jacobi_symbolic with the Jacobiator {x_i, {x_j, x_k}} + cyclic written
    as nested brackets, each one a Hamiltonian field applied to a polynomial."""

    def bracket(f, g):
        return hamiltonian_vf(model, f)(g)

    xs = [model.variable(v) for v in model.vars]

    def jacobiator(i, j, k):
        return (
            bracket(xs[i], bracket(xs[j], xs[k]))
            + bracket(xs[j], bracket(xs[k], xs[i]))
            + bracket(xs[k], bracket(xs[i], xs[j]))
        )

    triples = list(itertools.combinations(range(model.dim), 3))
    if not model.constraints:
        for t in triples:
            if not jacobiator(*t).is_zero():
                return JacobiVerdict(False, True, math.inf, t)
        return JacobiVerdict(True, True)
    polys = {t: jacobiator(*t) for t in triples}
    for _ in range(points):
        pt = model.sampler(rng)
        for t, p in polys.items():
            val = p.eval(pt)
            if val:
                return JacobiVerdict(False, False, abs(float(val)) or math.ulp(0.0), t)
    return JacobiVerdict(True, False)


def _nambu_brackets(f, C):
    """{x_i, x_j} = f eps_ijk dC/dx_k on three variables: Poisson for every f, C."""
    x, y, z = f.vars
    return {(0, 1): f * C.diff(z), (1, 2): f * C.diff(x), (0, 2): -1 * f * C.diff(y)}


def test_jacobi_symbolic_matches_nested_brackets_on_random_models():
    rng = random.Random(20)
    v3, v4 = ("x", "y", "z"), ("x", "y", "z", "t")
    sphere = Polynomial.variable(v3, "x") ** 2 + Polynomial.variable(v3, "y") ** 2
    sphere = sphere + Polynomial.variable(v3, "z") ** 2 - 1
    outcomes = set()
    for trial in range(12):
        f, C = _random_poly(rng, v3), _random_poly(rng, v3, degree=3)
        candidates = [
            PolynomialPoissonModel("nambu", v3, _nambu_brackets(f, C)),
            PolynomialPoissonModel(
                "random", v4,
                {(i, j): _random_poly(rng, v4) for i in range(4) for j in range(i + 1, 4)},
            ),
            # on the sphere: Poisson with C = |x|^2, and a random perturbation
            PolynomialPoissonModel(
                "nambu-sphere", v3, _nambu_brackets(f, sphere + 1),
                constraints=[sphere], sampler=_sphere_point,
            ),
            PolynomialPoissonModel(
                "random-sphere", v3,
                {k: p + Fraction(1, 10**9) * _random_poly(rng, v3)
                 for k, p in _nambu_brackets(f, sphere + 1).items()},
                constraints=[sphere], sampler=_sphere_point,
            ),
        ]
        for model in candidates:
            got = jacobi_symbolic(model, rng=random.Random(trial), points=5)
            assert got == _jacobi_nested(model, rng=random.Random(trial), points=5)
            assert got == jacobi_symbolic_by_triples(model, rng=random.Random(trial), points=5)
            outcomes.add((got.ok, got.symbolic))
    assert outcomes == {(True, True), (False, True), (True, False), (False, False)}


def test_jacobi_symbolic_matches_nested_brackets_on_catalog_models():
    for name in ("su2", "sl2-hyperbolic", "sl2-parabolic", "compartmental", "canonical2d"):
        model = catalog.build_model(name, Fraction(-5, 2)).model
        got = jacobi_symbolic(model, rng=random.Random(7), points=5)
        assert got.ok and got == _jacobi_nested(model, rng=random.Random(7), points=5)
        assert got == jacobi_symbolic_by_triples(model, rng=random.Random(7), points=5)


@pytest.mark.parametrize("name", ["su2", "sl2-elliptic", "toda-n3"])
def test_jacobi_symbolic_matches_the_oracles_on_perturbed_constrained_models(name):
    # one table entry plus a small polynomial breaks the identity on the
    # variety; the first violating triple at the first violating point, and
    # its float magnitude, are those of the nested brackets and of the
    # per-triple expansion
    model = catalog.build_model(name, Fraction(3, 2)).model
    rng = random.Random(name)
    for key in list(model._table)[:3]:
        bump = Fraction(1, 10**6) * _random_poly(rng, model.vars)
        perturbed = PolynomialPoissonModel(
            "perturbed", model.vars, {**model._table, key: model._table[key] + bump},
            constraints=model.constraints, sampler=model.sampler,
        )
        got = jacobi_symbolic(perturbed, rng=random.Random(5), points=4)
        assert not got.ok and not got.symbolic and 0 < got.max_residual < 1
        assert got == _jacobi_nested(perturbed, rng=random.Random(5), points=4)
        assert got == jacobi_symbolic_by_triples(perturbed, rng=random.Random(5), points=4)


def _kernel_row(model, covector, target):
    """The row of kernel_obstruction_verify's residual error, or None when
    the residual check passes (whatever the witness search then finds)."""
    try:
        kernel_obstruction_verify(model, covector, target, rng=random.Random(0))
    except ValueError as exc:
        found = re.fullmatch(r"kernel residual is nonzero in row (\d+): not a certificate", str(exc))
        if found:
            return int(found.group(1))
    return None


@st.composite
def _kernel_problems(draw):
    """A model, a covector and a target: a catalog group model with its
    kernel covector, a Nambu bracket with the gradient of its Casimir, or a
    random table and covector; half the time one covector entry is shifted
    by a random polynomial."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["catalog", "nambu", "random"]))
    if kind == "catalog":
        name = draw(st.sampled_from(GROUP_MODEL_NAMES[:4]))
        b = catalog.build_model(name, draw(st.sampled_from([1, 2, Fraction(1, 3), Fraction(-5, 2)])))
        model, covector = b.model, list(b.kernel_covector)
    elif kind == "nambu":
        v = ("x", "y", "z")
        f, C = _random_poly(rng, v), _random_poly(rng, v, degree=3)
        model = PolynomialPoissonModel("nambu", v, _nambu_brackets(f, C))
        covector = [C.diff(x) for x in v]
    else:
        v = _NAMES[:draw(st.integers(2, 4))]
        brackets = {key: _random_poly(rng, v) for key in itertools.combinations(range(len(v)), 2)}
        model = PolynomialPoissonModel("random", v, brackets)
        covector = [_random_poly(rng, v, terms=rng.randint(0, 2)) for _ in v]
    if draw(st.booleans()):
        j = draw(st.integers(0, model.dim - 1))
        covector[j] = covector[j] + _random_poly(rng, model.vars)
    target = PolyVectorField(model.vars, [model.constant(1)] * model.dim)
    return model, covector, target


@settings(max_examples=150, deadline=None)
@given(_kernel_problems())
def test_kernel_residual_matches_the_sharp_oracle(problem):
    # the int residual accepts exactly the covectors whose Pi#(c) is the
    # zero polynomial, and otherwise names the same first nonzero row
    model, covector, target = problem
    want = kernel_residual_row_by_sharp(model, covector)
    event("kernel" if want is None else "not a kernel")
    assert _kernel_row(model, covector, target) == want


def test_kernel_covector_over_other_variables_is_refused_up_front(su2):
    # a zero entry over other variables is refused before the residual,
    # which the constant in entry 1 would fail
    v, other = su2.model.vars, ("p", "q", "r", "s")
    covector = [Polynomial.zero(other), Polynomial.constant(v, 1), *su2.kernel_covector[2:]]
    with pytest.raises(ValueError, match="^polynomials over different variables$"):
        kernel_obstruction_verify(su2.model, covector, su2.horizontal_field())


def _preservation_by_pairing(model, h, sigma, tau, left, right, chi_g_form):
    """X_h(sigma + tau) + (right(h) - left(h) - <chi_g form, X_h>) / 2, with
    the pairing summed component by component."""
    xh = hamiltonian_vf(model, h)
    out = xh(sigma + tau) + Fraction(1, 2) * (right(h) - left(h))
    if chi_g_form is not None:
        pairing = Polynomial.zero(model.vars)
        for w, comp in zip(chi_g_form, xh.components):
            pairing = pairing + w * comp
        out = out - Fraction(1, 2) * pairing
    return out


@pytest.mark.parametrize("name", ["su2", "sl2-elliptic", "sl2-parabolic", "toda-n3"])
def test_preservation_residual_matches_pairing_formula(name):
    b = catalog.build_model(name, Fraction(1, 3))
    v = b.model.vars
    rng = random.Random(name)
    for _ in range(3):
        sigma, tau = _random_poly(rng, v), _random_poly(rng, v)
        chi = [_random_poly(rng, v, terms=2, degree=1) for _ in v]
        for chi_g_form in (None, chi):
            args = (b.model, b.hamiltonian, sigma, tau, b.left_chi, b.right_chi, chi_g_form)
            got = preservation_residual(*args)
            assert got == _preservation_by_pairing(*args)
            assert not got.is_zero()


def _multiplicativity_full_matrix(model, pairs, rng):
    """multiplicativity_spotcheck over every entry (a, b) of
    Pi(gh) - JL Pi(h) JL^T - JR Pi(g) JR^T, each entry a double sum."""
    n = model.dim
    mvars = model.group_mult[0].vars
    d_left = [[m.diff(mvars[n + j]) for j in range(n)] for m in model.group_mult]
    d_right = [[m.diff(mvars[j]) for j in range(n)] for m in model.group_mult]
    worst = 0.0
    for _ in range(pairs):
        g, h = model.sampler(rng), model.sampler(rng)
        gh = tuple(g) + tuple(h)
        prod = tuple(m.eval(gh) for m in model.group_mult)
        jl = [[p.eval(gh) for p in row] for row in d_left]
        jr = [[p.eval(gh) for p in row] for row in d_right]
        pi_h = [[model.bracket_entry(i, j).eval(h) for j in range(n)] for i in range(n)]
        pi_g = [[model.bracket_entry(i, j).eval(g) for j in range(n)] for i in range(n)]
        for a in range(n):
            for b in range(n):
                rhs = sum(
                    jl[a][i] * pi_h[i][j] * jl[b][j] + jr[a][i] * pi_g[i][j] * jr[b][j]
                    for i in range(n)
                    for j in range(n)
                )
                residual = model.bracket_entry(a, b).eval(prod) - rhs
                if residual:
                    worst = max(worst, abs(float(residual)))
    return worst


@pytest.mark.parametrize("name", ["su2", "sl2-hyperbolic", "sl2-elliptic"])
def test_multiplicativity_matches_full_matrix_formula(name):
    b = catalog.build_model(name, 2)
    model = b.model
    v = model.vars
    rng = random.Random(name)
    # a perturbation that still vanishes at the identity, so only the
    # multiplicativity residual can fail
    bump = _random_poly(rng, v) * (model.variable(v[1]) ** 2)
    perturbed = PolynomialPoissonModel(
        "perturbed", v, {**model._table, (0, 1): model.bracket_entry(0, 1) + bump},
        constraints=model.constraints, base_point=model.base_point, poisson_lie=True,
        group_mult=model.group_mult, sampler=model.sampler,
    )
    for m in (model, perturbed):
        got = multiplicativity_spotcheck(m, pairs=4, rng=random.Random(5))
        assert got == _multiplicativity_full_matrix(m, pairs=4, rng=random.Random(5))
    assert got > 0.0


# few exponents and unit-sized coefficients, so that the sums cancel terms
_cancelling = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)),
    st.sampled_from([1, -1, 2, Fraction(-1, 2)]),
    max_size=4,
).map(lambda terms: Polynomial(("x", "y", "z"), terms))


@settings(max_examples=80, deadline=None)
@given(st.lists(_cancelling, min_size=7, max_size=7), _cancelling)
def test_fields_match_the_chained_sum_oracle_in_key_order(polys, h):
    # sharp, field application and divergence build each sum in one dict;
    # the terms and their order (the float evaluator's summation order) are
    # those of the chained two-term sums they replaced
    def items(ps):
        return [list(p.terms.items()) for p in ps]

    brackets, omega, rho = polys[:3], polys[3:6], polys[6]
    model = PolynomialPoissonModel("random", h.vars, dict(zip([(0, 1), (0, 2), (1, 2)], brackets)))
    X = model.sharp(omega)
    assert items(X.components) == items(sharp_by_chained_sums(model, omega))
    assert items([X(h)]) == items([apply_field_by_chained_sums(X, h)])
    for log_density in (None, rho):
        assert items([divergence(model, X, log_density)]) == items(
            [divergence_by_chained_sums(X, log_density)]
        )


@pytest.mark.parametrize(
    "sampler, oracle",
    [
        (catalog._sphere_sampler, sphere_sampler_by_fractions),
        (catalog._sl2_sampler, sl2_sampler_by_fractions),
        (catalog._sl3_sampler, sl3_sampler_by_fractions),
    ],
)
def test_int_samplers_match_the_fraction_samplers(sampler, oracle):
    # the same points, all Fractions, from the same randint calls
    for seed in (0, 1, catalog.DEFAULT_SEED, coord.SPOTCHECK_SEED):
        rng, want_rng = random.Random(seed), random.Random(seed)
        for _ in range(1000):
            point = sampler(rng)
            assert point == oracle(want_rng)
            assert all(type(c) is Fraction for c in point)
        assert rng.getstate() == want_rng.getstate()


def test_sphere_and_sl2_sampler_first_draws_are_pinned():
    """The su2 and sl2 samplers' points from Random(DEFAULT_SEED), and the
    state each leaves, as recorded from the Fraction samplers."""
    pins = {
        catalog._sphere_sampler: (
            [
                "-344/569 180/569 -375/569 180/569",
                "-29/61 48/61 24/61 0",
                "-25/43 -30/43 18/43 0",
                "-11/15 0 2/15 -2/3",
                "-17/67 -40/67 50/67 -10/67",
            ],
            251449,
        ),
        catalog._sl2_sampler: (
            ["4 1/2 1 3/8", "-5/3 2 1 -9/5", "1/2 -2 -1 6", "2 0 -2/3 1/2", "-3 1/2 -2 0"],
            283510,
        ),
    }
    for sampler, (points, after) in pins.items():
        rng = random.Random(catalog.DEFAULT_SEED)
        assert [" ".join(map(str, sampler(rng))) for _ in range(5)] == points
        assert rng.randint(0, 10**6) == after


def test_sl3_sampler_first_draws_are_pinned():
    """The toda-n3 sampler's points from Random(DEFAULT_SEED), and the state it
    leaves: the spot checks' verdicts and ``verify-all --seed`` depend on
    both.  Each draw is L diag(d1, d2, 1/(d1 d2)) U, so its determinant is 1."""
    rng = random.Random(catalog.DEFAULT_SEED)
    draws = [catalog._sl3_sampler(rng) for _ in range(5)]
    assert [" ".join(map(str, d)) for d in draws] == [
        "1 0 -1 -1/3 1 -1/6 1/3 -2/3 1",
        "3 -3 2 -3/2 1/2 -3/2 0 3 7/6",
        "1 1 3 0 -1/3 2/9 -1 -4/3 -52/9",
        "-3/2 3/4 -9/2 9/2 -21/4 31/2 1/2 -9/4 55/18",
        "-1 -1/3 -3/2 1/3 -8/9 2 -1 -1 1/2",
    ]
    assert rng.randint(0, 10**6) == 730981
    for d in draws:
        assert all(type(c) is Fraction for c in d)
        m = [d[0:3], d[3:6], d[6:9]]
        assert (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        ) == 1
