"""Coordinate-level polynomial Poisson models and their dynamics.

A model is an antisymmetric matrix of polynomials Pi[i][j] = {x_i, x_j},
possibly constrained to a variety (unit sphere, unimodular matrices).  On top
of it live Hamiltonian fields with the convention X_h(f) = sum_i dh/dx_i
{x_i, f}, divergences, kernel-covector certificates of non-Hamiltonicity,
Hessians at critical points, and an RK4 integrator that monitors the
accumulated divergence (the log-volume drift) along the flow.

Exact questions (kernel residuals, symbolic Jacobi, Hessians) stay in
rational arithmetic; only the integrator and the finite-difference spot
check run in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .linalg import frac
from .poly import Polynomial


class PolyVectorField:
    """Vector field with one polynomial component per model variable."""

    __slots__ = ("vars", "components")

    def __init__(self, variables: Sequence[str], components: Sequence[Polynomial]):
        self.vars = tuple(variables)
        if len(components) != len(self.vars):
            raise ValueError("component count must match the variable count")
        for c in components:
            if c.vars != self.vars:
                raise ValueError("components over different variables")
        self.components = tuple(components)

    def __call__(self, h: Polynomial) -> Polynomial:
        """Directional derivative V(h) = sum_i V_i dh/dx_i."""
        out = Polynomial.zero(self.vars)
        for name, comp in zip(self.vars, self.components):
            if not comp.is_zero():
                out = out + comp * h.diff(name)
        return out

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        return PolyVectorField(
            self.vars, [a + b for a, b in zip(self.components, other.components)]
        )

    def __sub__(self, other: "PolyVectorField") -> "PolyVectorField":
        return PolyVectorField(
            self.vars, [a - b for a, b in zip(self.components, other.components)]
        )

    def __rmul__(self, c) -> "PolyVectorField":
        return PolyVectorField(self.vars, [c * a for a in self.components])

    def __eq__(self, other):
        return (
            isinstance(other, PolyVectorField)
            and self.vars == other.vars
            and self.components == other.components
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    @classmethod
    def zero(cls, variables) -> "PolyVectorField":
        return cls(variables, [Polynomial.zero(variables)] * len(variables))

    def eval(self, point) -> tuple[Fraction, ...]:
        return tuple(c.eval(point) for c in self.components)

    def eval_float(self, point) -> list[float]:
        return [c.eval_float(point) for c in self.components]

    def __repr__(self):
        parts = [f"({c!r}) d/d{v}" for v, c in zip(self.vars, self.components) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"


class PolynomialPoissonModel:
    """Named coordinates with an antisymmetric polynomial bracket matrix."""

    def __init__(
        self,
        name: str,
        variables: Sequence[str],
        brackets: dict,
        constraints: Sequence[Polynomial] = (),
        base_point: Sequence = None,
        poisson_lie: bool = False,
        group_mult: Optional[Sequence[Polynomial]] = None,
        sampler: Optional[Callable] = None,
    ):
        """brackets maps (i, j) with i < j to the polynomial {x_i, x_j}."""
        self.name = name
        self.vars = tuple(variables)
        n = len(self.vars)
        table: dict[tuple[int, int], Polynomial] = {}
        for (i, j), p in brackets.items():
            if not (0 <= i < j < n):
                raise ValueError("bracket keys must satisfy 0 <= i < j < n")
            if p.vars != self.vars:
                raise ValueError("bracket entry over different variables")
            if not p.is_zero():
                table[(i, j)] = p
        self._table = table
        self.constraints = tuple(constraints)
        self.base_point = (
            tuple(frac(c) for c in base_point) if base_point is not None else None
        )
        self.poisson_lie = poisson_lie
        self.group_mult = tuple(group_mult) if group_mult is not None else None
        self.sampler = sampler
        if self.base_point is not None:
            for c in self.constraints:
                if c.eval(self.base_point) != 0:
                    raise ValueError("base point violates a constraint")
            if self.poisson_lie:
                for p in table.values():
                    if p.eval(self.base_point) != 0:
                        raise ValueError("bracket does not vanish at the base point")

    @property
    def dim(self) -> int:
        return len(self.vars)

    def bracket_entry(self, i: int, j: int) -> Polynomial:
        """Pi[i][j] = {x_i, x_j}, with the (j, i) entry implied."""
        if i == j:
            return Polynomial.zero(self.vars)
        if i < j:
            return self._table.get((i, j), Polynomial.zero(self.vars))
        return -self._table.get((j, i), Polynomial.zero(self.vars))

    def matrix(self) -> list[list[Polynomial]]:
        n = self.dim
        return [[self.bracket_entry(i, j) for j in range(n)] for i in range(n)]

    def variable(self, name: str) -> Polynomial:
        return Polynomial.variable(self.vars, name)

    def constant(self, c) -> Polynomial:
        return Polynomial.constant(self.vars, c)

    def sharp(self, omega: Sequence[Polynomial]) -> PolyVectorField:
        """Pi#(omega), the field with components sum_i omega_i Pi[i][j]."""
        comps = []
        for j in range(self.dim):
            p = Polynomial.zero(self.vars)
            for i in range(self.dim):
                if not omega[i].is_zero():
                    p = p + omega[i] * self.bracket_entry(i, j)
            comps.append(p)
        return PolyVectorField(self.vars, comps)


def hamiltonian_vf(model: PolynomialPoissonModel, h: Polynomial) -> PolyVectorField:
    """X_h with X_h(x_j) = sum_i dh/dx_i {x_i, x_j} (so X_h(f) = {h, f})."""
    if h.vars != model.vars:
        raise ValueError("hamiltonian over different variables")
    grad = [h.diff(v) for v in model.vars]
    return model.sharp(grad)


def poisson_bracket(model: PolynomialPoissonModel, f: Polynomial, g: Polynomial) -> Polynomial:
    return hamiltonian_vf(model, f)(g)


def _magnitude(x: Fraction) -> float:
    """abs(x) as a float, never rounded down to 0.0 for a nonzero x."""
    return abs(float(x)) or math.ulp(0.0)


@dataclass
class JacobiVerdict:
    ok: bool
    symbolic: bool
    max_residual: float = 0.0
    violating_triple: Optional[tuple[int, int, int]] = None


def jacobi_symbolic(
    model: PolynomialPoissonModel, rng=None, points: int = 100
) -> JacobiVerdict:
    """Jacobi identity of the bracket.  Unconstrained models are checked by
    full symbolic expansion; constrained models at exact rational points on
    the variety drawn from the model's sampler, failing on the first nonzero
    exact residual (reported by its float magnitude)."""
    n = model.dim
    xs = [model.variable(v) for v in model.vars]

    def jacobiator(i, j, k) -> Polynomial:
        return (
            poisson_bracket(model, xs[i], poisson_bracket(model, xs[j], xs[k]))
            + poisson_bracket(model, xs[j], poisson_bracket(model, xs[k], xs[i]))
            + poisson_bracket(model, xs[k], poisson_bracket(model, xs[i], xs[j]))
        )

    if not model.constraints:
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    if not jacobiator(i, j, k).is_zero():
                        return JacobiVerdict(False, True, math.inf, (i, j, k))
        return JacobiVerdict(True, True)

    if model.sampler is None:
        raise ValueError("constrained model without a variety sampler")
    polys = {
        (i, j, k): jacobiator(i, j, k)
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    }
    for _ in range(points):
        pt = model.sampler(rng)
        for triple, p in polys.items():
            val = p.eval(pt)
            if val:
                return JacobiVerdict(False, False, _magnitude(val), triple)
    return JacobiVerdict(True, False)


def divergence(
    model: PolynomialPoissonModel, X: PolyVectorField, log_density: Polynomial = None
) -> Polynomial:
    """div(X) + X(log_density); the Euclidean divergence when the density is
    trivial."""
    out = Polynomial.zero(model.vars)
    for name, comp in zip(model.vars, X.components):
        out = out + comp.diff(name)
    if log_density is not None and not log_density.is_zero():
        out = out + X(log_density)
    return out


# ---------------------------------------------------------------------------
# kernel-covector certificates
# ---------------------------------------------------------------------------


@dataclass
class KernelObstructionCertificate:
    """A polynomial covector c in the left kernel of Pi whose pairing with a
    target field is nonzero on the variety: the target cannot be Hamiltonian,
    since c kills every X_mu but not the target."""

    covector: tuple[Polynomial, ...]
    target: PolyVectorField
    obstruction: Polynomial
    witness_point: tuple[Fraction, ...]
    witness_value: Fraction


def kernel_obstruction_verify(
    model: PolynomialPoissonModel,
    covector: Sequence[Polynomial],
    target: PolyVectorField,
    witness_point: Sequence = None,
) -> KernelObstructionCertificate:
    """Verify that sum_j c_j Pi[i][j] is the zero polynomial for every i, and
    that sum_j c_j target_j is nonzero at an exact point on the variety."""
    n = model.dim
    if len(covector) != n:
        raise ValueError("covector length must match the model dimension")
    for i in range(n):
        residual = Polynomial.zero(model.vars)
        for j in range(n):
            if not covector[j].is_zero():
                residual = residual + covector[j] * model.bracket_entry(i, j)
        if not residual.is_zero():
            raise ValueError(f"kernel residual is nonzero in row {i}: not a certificate")
    obstruction = Polynomial.zero(model.vars)
    for cj, tj in zip(covector, target.components):
        obstruction = obstruction + cj * tj
    point = None
    if witness_point is not None:
        cand = tuple(frac(c) for c in witness_point)
        if all(c.eval(cand) == 0 for c in model.constraints) and obstruction.eval(cand):
            point = cand
    if point is None:
        import random

        rng = random.Random(5571)
        for _ in range(2000):
            if model.sampler is not None:
                cand = model.sampler(rng)
            else:
                cand = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))
                if any(c.eval(cand) != 0 for c in model.constraints):
                    continue
            if obstruction.eval(cand):
                point = cand
                break
    if point is None:
        raise ValueError("obstruction vanishes at all sampled variety points: inconclusive")
    return KernelObstructionCertificate(
        covector=tuple(covector),
        target=target,
        obstruction=obstruction,
        witness_point=point,
        witness_value=obstruction.eval(point),
    )


# ---------------------------------------------------------------------------
# character-data fields and preservation residuals
# ---------------------------------------------------------------------------


def field_from_character_data(
    model: PolynomialPoissonModel,
    left_field: PolyVectorField,
    right_field: PolyVectorField,
    chi_g_form: Optional[Sequence[Polynomial]] = None,
    log_density: Optional[Polynomial] = None,
) -> PolyVectorField:
    """Assemble the horizontal modular field
    -Pi#(d sigma) + (right - left + Pi#(chi_g form)) / 2
    from the coordinate expressions of the invariant character fields."""
    out = Fraction(1, 2) * (right_field - left_field)
    if chi_g_form is not None:
        out = out + Fraction(1, 2) * model.sharp(list(chi_g_form))
    if log_density is not None and not log_density.is_zero():
        out = out - hamiltonian_vf(model, log_density)
    return out


def preservation_residual(
    model: PolynomialPoissonModel,
    h: Polynomial,
    sigma: Polynomial,
    tau: Polynomial,
    left_field: PolyVectorField,
    right_field: PolyVectorField,
    chi_g_form: Optional[Sequence[Polynomial]] = None,
) -> Polynomial:
    """X_h(sigma + tau) + (right(h) - left(h) - <chi_g form, X_h>) / 2;
    identically zero exactly when the flow of X_h preserves the volume data
    encoded by (sigma, tau)."""
    xh = hamiltonian_vf(model, h)
    out = xh(sigma + tau)
    half = Fraction(1, 2)
    out = out + half * (right_field(h) - left_field(h))
    if chi_g_form is not None:
        pairing = Polynomial.zero(model.vars)
        for w, comp in zip(chi_g_form, xh.components):
            pairing = pairing + w * comp
        out = out - half * pairing
    return out


def basic_function_check(
    model: PolynomialPoissonModel, h: Polynomial, vertical_fields: Sequence[PolyVectorField]
) -> bool:
    """True iff every vertical field kills h as a polynomial identity."""
    return all(V(h).is_zero() for V in vertical_fields)


def evaluate_field_at(obj, point) -> object:
    """Exact rational evaluation of a field (tuple) or polynomial (scalar)."""
    pt = tuple(frac(c) for c in point)
    if isinstance(obj, PolyVectorField):
        return obj.eval(pt)
    if isinstance(obj, Polynomial):
        return obj.eval(pt)
    raise TypeError("expected a PolyVectorField or Polynomial")


def hessian_at(
    model: PolynomialPoissonModel,
    h: Polynomial,
    point: Sequence,
    frame: Sequence[PolyVectorField],
) -> list[list[Fraction]]:
    """Hessian matrix H[i][j] = V_i(V_j(h)) at a critical point of h along the
    frame.  Raises if the point is not critical along the frame; the result is
    checked to be symmetric (true at critical points)."""
    pt = tuple(frac(c) for c in point)
    for k, V in enumerate(frame):
        if V(h).eval(pt) != 0:
            raise ValueError(f"dh does not vanish along frame direction {k} at the point")
    firsts = [V(h) for V in frame]
    n = len(frame)
    H = [[frame[i](firsts[j]).eval(pt) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if H[i][j] != H[j][i]:
                raise AssertionError("Hessian is not symmetric at the critical point")
    return H


# ---------------------------------------------------------------------------
# numerical spot checks
# ---------------------------------------------------------------------------


def multiplicativity_spotcheck(
    model: PolynomialPoissonModel, pairs: int = 100, rng=None
) -> float:
    """At random variety pairs (g, h): compare Pi(gh) with
    JL Pi(h) JL^T + JR Pi(g) JR^T, the Jacobians taken of the multiplication
    map in each argument.  Also asserts Pi vanishes at the base point.
    Returns the float magnitude of the max absolute entry residual; the
    residuals are exact, so it is 0.0 exactly when every one vanishes."""
    if model.group_mult is None:
        raise ValueError("model carries no group multiplication map")
    if model.sampler is None:
        raise ValueError("model carries no variety sampler")
    n = model.dim
    if model.base_point is not None:
        for i in range(n):
            for j in range(i + 1, n):
                if model.bracket_entry(i, j).eval(model.base_point) != 0:
                    raise AssertionError("bracket does not vanish at the identity")
    mvars = model.group_mult[0].vars  # x-block then y-block
    d_left = [[m.diff(mvars[n + j]) for j in range(n)] for m in model.group_mult]
    d_right = [[m.diff(mvars[j]) for j in range(n)] for m in model.group_mult]
    worst = 0.0
    for _ in range(pairs):
        g = model.sampler(rng)
        h = model.sampler(rng)
        gh_args = tuple(g) + tuple(h)
        prod = tuple(m.eval(gh_args) for m in model.group_mult)
        jl = [[d_left[i][j].eval(gh_args) for j in range(n)] for i in range(n)]
        jr = [[d_right[i][j].eval(gh_args) for j in range(n)] for i in range(n)]
        pi_h = [[model.bracket_entry(i, j).eval(h) for j in range(n)] for i in range(n)]
        pi_g = [[model.bracket_entry(i, j).eval(g) for j in range(n)] for i in range(n)]
        for a in range(n):
            for b in range(n):
                lhs = model.bracket_entry(a, b).eval(prod)
                rhs = Fraction(0)
                for i in range(n):
                    for j in range(n):
                        if pi_h[i][j]:
                            rhs += jl[a][i] * pi_h[i][j] * jl[b][j]
                        if pi_g[i][j]:
                            rhs += jr[a][i] * pi_g[i][j] * jr[b][j]
                residual = lhs - rhs
                if residual:
                    worst = max(worst, _magnitude(residual))
    return worst


def linearization_vs_cocommutator(
    model: PolynomialPoissonModel,
    delta_images: Sequence,
    frame: Sequence[Sequence],
    sign: int = 1,
    step: float = 1e-4,
) -> float:
    """Central finite differences of Pi at the base point along the frame
    directions, against the cocommutator images pushed through the frame.

    ``delta_images`` holds, per algebra basis vector, the sparse terms
    {(i, j): coeff} of delta(X_k); ``frame`` maps basis vectors to coordinate
    directions at the identity.  ``sign`` records the orientation calibration
    between the coordinate bracket and the cocommutator."""
    if model.base_point is None:
        raise ValueError("model needs a base point")
    n = model.dim
    base = [float(c) for c in model.base_point]
    fr = [[float(c) for c in direction] for direction in frame]
    worst = 0.0
    for k, image in enumerate(delta_images):
        plus = [b + step * d for b, d in zip(base, fr[k])]
        minus = [b - step * d for b, d in zip(base, fr[k])]
        for a in range(n):
            for b in range(a + 1, n):
                p = model.bracket_entry(a, b)
                numeric = (p.eval_float(plus) - p.eval_float(minus)) / (2 * step)
                expected = 0.0
                for (i, j), c in image.items():
                    expected += float(c) * (fr[i][a] * fr[j][b] - fr[i][b] * fr[j][a])
                worst = max(worst, abs(numeric - sign * expected))
    return worst


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------


@dataclass
class FlowTrace:
    variables: tuple[str, ...]
    times: list[float]
    states: list[list[float]]
    div_integral: list[float]
    constraint_drift: list[float]

    def final_div_integral(self) -> float:
        return self.div_integral[-1]

    def max_drift(self) -> float:
        return max(self.constraint_drift)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.csv())

    def csv(self) -> str:
        header = "t," + ",".join(self.variables) + ",divint,constraint_drift"
        lines = [header]
        for t, x, dv, cd in zip(self.times, self.states, self.div_integral, self.constraint_drift):
            cells = [f"{t:.17g}"] + [f"{c:.17g}" for c in x] + [f"{dv:.17g}", f"{cd:.17g}"]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


class ConstraintDriftError(RuntimeError):
    pass


def rk4_flow(
    model: PolynomialPoissonModel,
    h: Polynomial,
    x0: Sequence,
    T: float,
    dt: float,
    log_density: Polynomial = None,
    drift_tolerance: float = 1e-6,
) -> FlowTrace:
    """Classical RK4 on X_h with fixed step, no projection.  The trace records
    the accumulated divergence integral (Simpson on half-steps) and the max
    constraint drift; a step is rejected when the drift passes the tolerance,
    and a run whose final state or divergence integral is not finite raises.
    """
    field = hamiltonian_vf(model, h)
    div = divergence(model, field, log_density)
    x = [float(c) for c in x0]
    for c in model.constraints:
        if abs(c.eval_float(x)) > 1e-12:
            raise ValueError("initial point violates the constraints")

    def rhs(state):
        return field.eval_float(state)

    def step(state, hstep):
        k1 = rhs(state)
        k2 = rhs([s + 0.5 * hstep * k for s, k in zip(state, k1)])
        k3 = rhs([s + 0.5 * hstep * k for s, k in zip(state, k2)])
        k4 = rhs([s + hstep * k for s, k in zip(state, k3)])
        return [
            s + hstep / 6.0 * (a + 2 * b + 2 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)
        ]

    steps = int(round(T / dt))
    times = [0.0]
    states = [list(x)]
    div_int = [0.0]
    drift0 = max((abs(c.eval_float(x)) for c in model.constraints), default=0.0)
    drifts = [drift0]
    acc = 0.0
    for k in range(steps):
        f0 = div.eval_float(x)
        xm = step(x, dt / 2.0)
        fm = div.eval_float(xm)
        x = step(xm, dt / 2.0)
        f1 = div.eval_float(x)
        acc += dt / 6.0 * (f0 + 4.0 * fm + f1)
        drift = max((abs(c.eval_float(x)) for c in model.constraints), default=0.0)
        if drift > drift_tolerance:
            raise ConstraintDriftError(
                f"constraint drift {drift:.3e} exceeded {drift_tolerance:.1e} at step {k}"
            )
        times.append((k + 1) * dt)
        states.append(list(x))
        div_int.append(acc)
        drifts.append(drift)
    # RK4 on a polynomial field never turns inf or nan back into a finite value
    if not all(math.isfinite(v) for v in x + [acc]):
        raise ValueError(f"non-finite state or divergence integral after {steps} steps of {dt}")
    return FlowTrace(
        variables=model.vars,
        times=times,
        states=states,
        div_integral=div_int,
        constraint_drift=drifts,
    )
