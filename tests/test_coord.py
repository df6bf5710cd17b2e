import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from poishom import catalog
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
from poishom.poly import Polynomial

from float_reference import eval_field, eval_float, rk4_reference


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


def test_model_rejects_a_base_point_of_the_wrong_length():
    v = ("x", "y")
    x, y = (Polynomial.variable(v, n) for n in v)
    for point in ((0,), (0, 0, 0)):
        with pytest.raises(ValueError, match="base point has"):
            PolynomialPoissonModel("short", v, {(0, 1): x * y}, base_point=point)
    assert PolynomialPoissonModel("ok", v, {(0, 1): x * y}, base_point=(0, 0)).base_point == (0, 0)


def test_multiplicativity_requires_data(comp):
    with pytest.raises(ValueError):
        multiplicativity_spotcheck(comp.model, pairs=1, rng=random.Random(0))


def test_linearization_all_calibrated_models():
    for name in ("su2", "sl2-hyperbolic", "sl2-elliptic", "sl2-parabolic"):
        bundle = catalog.build_model(name, 1)
        res = linearization_vs_cocommutator(
            bundle.model, bundle.delta_images, bundle.frame, bundle.cocommutator_sign
        )
        assert res < 1e-6
    compb = catalog.build_model("compartmental")
    assert (
        linearization_vs_cocommutator(
            compb.model, compb.delta_images, compb.frame, compb.cocommutator_sign
        )
        < 1e-6
    )


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

    brackets = {(i, j): poly(2, 2) for i in range(n) for j in range(i + 1, n)}
    x0 = draw(st.tuples(*[_starts] * n))
    constraints = [q - q.eval(x0) for q in (poly(2, 3) for _ in range(draw(st.integers(0, 2))))]
    model = PolynomialPoissonModel("random", names, brackets, constraints=constraints)
    h = poly(3, 4)
    log_density = poly(2, 2) if draw(st.booleans()) else None
    dt = draw(st.sampled_from([1e-3, 0.01, 0.05, 0.1, 0.3, 1.0, 3.0]))
    steps = draw(st.integers(0, 40))
    tolerance = draw(st.sampled_from([1e-6, 1e-2, math.inf]))
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
    assert _rk4_outcome(model, h, x0, T, dt, **kw) == want


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


def test_flow_trace_csv(tmp_path, comp):
    trace = rk4_flow(comp.model, comp.hamiltonian, (1, 1, 1), T=0.01, dt=1e-3)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,x3,divint,constraint_drift"
    assert len(lines) == 12
    cells = lines[1].split(",")
    assert len(cells) == 6 and cells[0] == "0"


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
            outcomes.add((got.ok, got.symbolic))
    assert outcomes == {(True, True), (False, True), (True, False), (False, False)}


def test_jacobi_symbolic_matches_nested_brackets_on_catalog_models():
    for name in ("su2", "sl2-hyperbolic", "sl2-parabolic", "compartmental", "canonical2d"):
        model = catalog.build_model(name, Fraction(-5, 2)).model
        got = jacobi_symbolic(model, rng=random.Random(7), points=5)
        assert got.ok and got == _jacobi_nested(model, rng=random.Random(7), points=5)


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
