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

import itertools
import math
from dataclasses import dataclass
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

    def matrix_at(self, point) -> list[list[Fraction]]:
        """Pi at an exact point: each upper-triangle entry of the table is
        evaluated once, the rest follows by antisymmetry."""
        n = self.dim
        out = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), p in self._table.items():
            out[i][j] = p.eval(point)
            out[j][i] = -out[i][j]
        return out

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
    pi = model.bracket_entry
    # X_{x_i} has components Pi[i][l], so {x_i, {x_j, x_k}} = X_{x_i}(Pi[j][k])
    fields = [PolyVectorField(model.vars, [pi(i, l) for l in range(n)]) for i in range(n)]

    def jacobiator(i, j, k) -> Polynomial:
        return fields[i](pi(j, k)) + fields[j](pi(k, i)) + fields[k](pi(i, j))

    triples = itertools.combinations(range(n), 3)
    if not model.constraints:
        for triple in triples:
            if not jacobiator(*triple).is_zero():
                return JacobiVerdict(False, True, math.inf, triple)
        return JacobiVerdict(True, True)

    if model.sampler is None:
        raise ValueError("constrained model without a variety sampler")
    polys = {triple: jacobiator(*triple) for triple in triples}
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
    # by antisymmetry, row i of the residual is minus component i of Pi#(c)
    for i, residual in enumerate(model.sharp(covector).components):
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
    encoded by (sigma, tau).  Since <w, X_h> = -(Pi#w)(h) and
    X_h(f) = -X_f(h), this is the horizontal field with log density
    sigma + tau applied to h."""
    horizontal = field_from_character_data(
        model, left_field, right_field, chi_g_form, sigma + tau
    )
    return horizontal(h)


def basic_function_check(
    model: PolynomialPoissonModel, h: Polynomial, vertical_fields: Sequence[PolyVectorField]
) -> bool:
    """True iff every vertical field kills h as a polynomial identity."""
    return all(V(h).is_zero() for V in vertical_fields)


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
    firsts = [V(h) for V in frame]
    for k, first in enumerate(firsts):
        if first.eval(pt) != 0:
            raise ValueError(f"dh does not vanish along frame direction {k} at the point")
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
    if model.base_point is not None and any(map(any, model.matrix_at(model.base_point))):
        raise AssertionError("bracket does not vanish at the identity")
    mvars = model.group_mult[0].vars  # x-block then y-block
    d_left = [[m.diff(mvars[n + j]) for j in range(n)] for m in model.group_mult]
    d_right = [[m.diff(mvars[j]) for j in range(n)] for m in model.group_mult]
    worst = 0.0
    for _ in range(pairs):
        g = model.sampler(rng)
        h = model.sampler(rng)
        gh_args = tuple(g) + tuple(h)
        lhs = model.matrix_at([m.eval(gh_args) for m in model.group_mult])
        # each term J Pi J^T is kept as the pair (J, J Pi)
        terms = []
        for d, pi in ((d_left, model.matrix_at(h)), (d_right, model.matrix_at(g))):
            jac = [[p.eval(gh_args) for p in row] for row in d]
            jpi = [
                [sum(row[i] * pi[i][j] for i in range(n) if pi[i][j]) for j in range(n)]
                for row in jac
            ]
            terms.append((jac, jpi))
        # the residual matrix is antisymmetric, so its upper triangle decides it
        for a in range(n):
            for b in range(a + 1, n):
                rhs = sum(jpi[a][j] * jac[b][j] for jac, jpi in terms for j in range(n))
                residual = lhs[a][b] - rhs
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
    constraint drift.  The run stops with an error at the first step (counted
    from 1) whose state or divergence integral is not finite, or whose drift
    passes the tolerance.  Each step's end-of-step divergence value starts the
    next step's Simpson sum.
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
    f0 = div.eval_float(x)
    for k in range(1, steps + 1):
        xm = step(x, dt / 2.0)
        fm = div.eval_float(xm)
        x = step(xm, dt / 2.0)
        f1 = div.eval_float(x)
        acc += dt / 6.0 * (f0 + 4.0 * fm + f1)
        f0 = f1
        if not (all(map(math.isfinite, x)) and math.isfinite(acc)):
            raise ValueError(
                f"non-finite state or divergence integral at step {k} (t = {k * dt:g}, dt = {dt})"
            )
        drift = max((abs(c.eval_float(x)) for c in model.constraints), default=0.0)
        if drift > drift_tolerance:
            raise ConstraintDriftError(
                f"constraint drift {drift:.3e} exceeded {drift_tolerance:.1e} at step {k}"
            )
        times.append(k * dt)
        states.append(list(x))
        div_int.append(acc)
        drifts.append(drift)
    return FlowTrace(
        variables=model.vars,
        times=times,
        states=states,
        div_integral=div_int,
        constraint_drift=drifts,
    )
