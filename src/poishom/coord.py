"""Coordinate-level polynomial Poisson models and their dynamics.

A model is an antisymmetric matrix of polynomials Pi[i][j] = {x_i, x_j},
possibly constrained to a variety (unit sphere, unimodular matrices).  On top
of it live Hamiltonian fields with the convention X_h(f) = sum_i dh/dx_i
{x_i, f}, divergences, kernel-covector certificates of non-Hamiltonicity,
Hessians at critical points, and an RK4 integrator that monitors the
accumulated divergence (the log-volume drift) along the flow.

Exact questions (kernel residuals, Jacobi, multiplicativity, the
linearization at the identity, Hessians) stay in rational arithmetic; only
the integrator runs in floating point.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .linalg import frac, integer_table
from .poly import (
    Polynomial,
    _sum_lines,
    diff_terms,
    eval_terms,
    exact_evaluator,
    float_shape,
    poly_sum,
    scaled_evaluator,
)

# seed of the spot checks' random draws when the caller passes no rng
SPOTCHECK_SEED = 5571


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
        pairs = zip(self.vars, self.components)
        return poly_sum(self.vars, (c * h.diff(name) for name, c in pairs if not c.is_zero()))

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
        if self.base_point is not None and len(self.base_point) != n:
            raise ValueError(
                f"base point has {len(self.base_point)} coordinates, the model {n} variables"
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

    def variable(self, name: str) -> Polynomial:
        return Polynomial.variable(self.vars, name)

    def constant(self, c) -> Polynomial:
        return Polynomial.constant(self.vars, c)

    def sharp(self, omega: Sequence[Polynomial]) -> PolyVectorField:
        """Pi#(omega), the field with components sum_i omega_i Pi[i][j]."""
        live = [i for i in range(self.dim) if not omega[i].is_zero()]
        comps = [
            poly_sum(self.vars, (omega[i] * self.bracket_entry(i, j) for i in live))
            for j in range(self.dim)
        ]
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


def _add_product(out: dict, p: dict, q: dict, sign: int = 1) -> None:
    """Add sign * p * q, for exponent -> int maps p and q, into ``out`` in
    place; a cancelled key is kept with the value 0."""
    for e1, c1 in p.items():
        c1 *= sign
        for e2, c2 in q.items():
            e = tuple([x + y for x, y in zip(e1, e2)])
            out[e] = out.get(e, 0) + c1 * c2


def _check_count(name: str, count) -> None:
    """Refuse a count that is not an int (a float or a bool) or is below 1."""
    if isinstance(count, bool) or not isinstance(count, int):
        raise ValueError(f"{name} must be an int >= 1, got {count!r}")
    if count < 1:
        raise ValueError(f"{name} must be at least 1, got {count}")


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
    full symbolic expansion; constrained models at ``points`` >= 1 exact
    rational points on the variety drawn from the model's sampler (with
    ``rng``, by default one seeded with SPOTCHECK_SEED), failing on the
    first nonzero exact residual (reported by its float magnitude).  Triples
    are visited in ``itertools.combinations`` order.  The Jacobiators are
    expanded in one pass over the nonzero pattern of the integer-scaled
    table, each into one exponent -> int dict; the constrained branch
    evaluates all of them through one ``exact_evaluator`` (plain int loops
    over a plan made once, no code generated), unless every one is the zero
    polynomial: then the identity holds everywhere, and the branch only
    draws its ``points`` samples, leaving ``rng`` in the state the
    evaluation would."""
    _check_count("points", points)
    n = model.dim
    # the table times the lcm L of its denominators, with int coefficients;
    # a Jacobiator is quadratic in the table, so on the scaled table it is
    # L^2 times the true one and vanishes exactly where the true one does
    scale, table = integer_table({key: p.terms for key, p in model._table.items()})
    columns = [[] for _ in range(n)]  # column l: (a, Pi[a][l]) per nonzero entry
    for (a, b), terms in table.items():
        columns[b].append((a, terms))
        columns[a].append((b, {e: -c for e, c in terms.items()}))
    # {x_a, {x_b, x_c}} = sum_l Pi[a][l] d_l Pi[b][c] for each entry b < c,
    # each variable l it contains and each a outside {b, c}, added into the
    # Jacobiator of the sorted triple, where (a, b, c) is cyclic unless b < a < c
    acc: dict[tuple[int, int, int], dict] = {}
    for (b, c), terms in table.items():
        for l in {w for e in terms for w, k in enumerate(e) if k}:
            d = diff_terms(terms, l)
            for a, outer in columns[l]:
                if a == b or a == c:
                    continue
                out = acc.setdefault(tuple(sorted((a, b, c))), {})
                _add_product(out, outer, d, -1 if b < a < c else 1)

    # the triples of the nonzero Jacobiators, sorted: in combinations order
    live = [triple for triple in sorted(acc) if any(acc[triple].values())]
    if not model.constraints:
        return JacobiVerdict(False, True, math.inf, live[0]) if live else JacobiVerdict(True, True)

    if model.sampler is None:
        raise ValueError("constrained model without a variety sampler")
    if rng is None:
        rng = random.Random(SPOTCHECK_SEED)
    if not live:
        # the identity holds on all of space; the points are still drawn,
        # so an rng shared with later checks is left where it would be
        for _ in range(points):
            model.sampler(rng)
        return JacobiVerdict(True, False)
    evaluate = exact_evaluator(model.vars, [Polynomial(model.vars, acc[t]) for t in live])
    for _ in range(points):
        values, q = evaluate(*model.sampler(rng))
        for triple, v in zip(live, values):
            if v:
                return JacobiVerdict(False, False, _magnitude(Fraction(v, q * scale**2)), triple)
    return JacobiVerdict(True, False)


def divergence(
    model: PolynomialPoissonModel, X: PolyVectorField, log_density: Polynomial = None
) -> Polynomial:
    """div(X) + X(log_density); the Euclidean divergence when the density is
    trivial."""
    summands = [comp.diff(name) for name, comp in zip(model.vars, X.components)]
    if log_density is not None and not log_density.is_zero():
        summands.append(X(log_density))
    return poly_sum(model.vars, summands)


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
    rng=None,
) -> KernelObstructionCertificate:
    """Verify that sum_j c_j Pi[i][j] is the zero polynomial for every i, and
    that sum_j c_j target_j is nonzero at an exact point on the variety.  The
    point is the witness point when it qualifies, else the first qualifying
    draw from the model's sampler (or of random rationals, for an
    unconstrained model) with ``rng``, by default one seeded with
    SPOTCHECK_SEED."""
    n = model.dim
    if len(covector) != n:
        raise ValueError("covector length must match the model dimension")
    if any(c.vars != model.vars for c in covector):
        raise ValueError("polynomials over different variables")
    # row i of the residual is bilinear in the covector and the table, so it
    # is decided on both scaled to ints: sum_j c_j Pi[i][j] over the nonzero c_j
    _, c = integer_table({j: cj.terms for j, cj in enumerate(covector) if cj.terms})
    _, table = integer_table({key: p.terms for key, p in model._table.items()})
    residuals: list[dict] = [{} for _ in range(n)]
    for (i, j), terms in table.items():
        if j in c:
            _add_product(residuals[i], c[j], terms)
        if i in c:
            _add_product(residuals[j], c[i], terms, -1)
    for i, residual in enumerate(residuals):
        if any(residual.values()):
            raise ValueError(f"kernel residual is nonzero in row {i}: not a certificate")
    obstruction = poly_sum(model.vars, (cj * tj for cj, tj in zip(covector, target.components)))
    point = None
    if witness_point is not None:
        cand = tuple(frac(c) for c in witness_point)
        if all(c.eval(cand) == 0 for c in model.constraints) and obstruction.eval(cand):
            point = cand
    if point is None:
        # random rational points all but never lie on a variety
        if model.constraints and model.sampler is None:
            raise ValueError(
                "no variety point was sampled: the model is constrained and has no "
                "variety sampler (give a witness point on the variety)"
            )
        if rng is None:
            rng = random.Random(SPOTCHECK_SEED)
        for _ in range(2000):
            if model.sampler is not None:
                cand = model.sampler(rng)
            else:
                cand = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))
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
    frame, by the product rule from point values: with g = grad h, the sum
    over k in K (some V_i^k(p) != 0) of V_i^k(p) d_k(V_j h)(p).  Raises
    ValueError if the point is off the model's variety or not critical along
    the frame; the result is checked to be symmetric (true at critical points)."""
    if h.vars != model.vars:
        raise ValueError("hamiltonian over different variables")
    for j, field in enumerate(frame):
        if field.vars != model.vars:
            raise ValueError(f"frame field {j} is over different variables")
    pt = tuple(frac(c) for c in point)
    h._check_point(pt)
    for k, c in enumerate(model.constraints):
        if eval_terms(c.terms, pt):
            raise ValueError(f"the point is off the variety: constraint {k} is nonzero there")
    n = len(pt)
    V = [[eval_terms(c.terms, pt) for c in field.components] for field in frame]
    grad = [diff_terms(h.terms, l) for l in range(n)]
    g = [eval_terms(d, pt) for d in grad]
    for j, v in enumerate(V):
        if sum(a * b for a, b in zip(v, g)):
            raise ValueError(f"dh does not vanish along frame direction {j} at the point")
    K = [k for k in range(n) if any(v[k] for v in V)]
    G = [l for l in range(n) if g[l]]
    second = {(k, l): eval_terms(diff_terms(grad[l], k), pt) for k in K for l in K}
    # d_k(V_j h)(p) = sum_l d_k V_j^l(p) g_l(p) + V_j^l(p) d_k d_l h(p)
    dVh = [
        {k: sum(eval_terms(diff_terms(field.components[l].terms, k), pt) * g[l] for l in G)
         + sum(v[l] * second[k, l] for l in K) for k in K}
        for field, v in zip(frame, V)
    ]
    H = [[sum((u[k] * d[k] for k in K), Fraction(0)) for d in dVh] for u in V]
    for i, j in itertools.combinations(range(len(H)), 2):
        if H[i][j] != H[j][i]:
            raise AssertionError("Hessian is not symmetric at the critical point")
    return H


# ---------------------------------------------------------------------------
# exact spot checks
# ---------------------------------------------------------------------------


def multiplicativity_spotcheck(
    model: PolynomialPoissonModel, pairs: int = 100, rng=None
) -> float:
    """At ``pairs`` >= 1 random variety pairs (g, h): compare Pi(gh) with
    JL Pi(h) JL^T + JR Pi(g) JR^T, the Jacobians taken of the multiplication
    map in each argument, at pairs drawn with ``rng`` (by default one seeded
    with SPOTCHECK_SEED).  Also asserts Pi vanishes at the base point.
    Returns the float magnitude of the max absolute entry residual; the
    residuals are exact, so it is 0.0 exactly when every one vanishes.

    Two exact evaluators do the evaluation, planned once per call with no
    code generated.  One (``poly.scaled_evaluator``) covers the product and
    both Jacobian blocks at (g, h), over the shared denominator Q_J: the
    product map is scaled to ints once, by the lcm L of its denominators,
    and each Jacobian entry is differentiated on those ints (e -> e - 1_l,
    c * e_l), which is L times the true derivative, so L and the degree are
    those of the product.  The other (``poly.exact_evaluator``) covers the
    table at g, h, gh and the base point (Q_g, Q_h, Q_gh).  Each upper
    entry (a, b) of J Pi J^T is planned once per call as its own list of
    (weight slot, Jacobian slot, Jacobian slot) triples, one per nonzero
    product, and summed over them at each pair.  Each residual times the
    positive Q_J^2 Q_h Q_g Q_gh is an int, decided on ints; a Fraction is
    built only for a nonzero one."""
    _check_count("pairs", pairs)
    if model.group_mult is None:
        raise ValueError("model carries no group multiplication map")
    if model.sampler is None:
        raise ValueError("model carries no variety sampler")
    if rng is None:
        rng = random.Random(SPOTCHECK_SEED)
    n = model.dim
    keys = list(model._table)
    entries = exact_evaluator(model.vars, [model._table[key] for key in keys])
    if model.base_point is not None and any(entries(*model.base_point)[0]):
        raise AssertionError("bracket does not vanish at the identity")
    mvars = model.group_mult[0].vars  # x-block then y-block
    if any(m.vars != mvars for m in model.group_mult):
        raise ValueError("group multiplication over different variables")
    scale, scaled = integer_table({a: m.terms for a, m in enumerate(model.group_mult)})
    mult = list(scaled.values())
    # a Jacobian entry is differentiated only in a variable its map contains
    used = [{w for e in m for w, k in enumerate(e) if k} for m in mult]
    d_left, d_right = (
        [diff_terms(m, w) if w in u else {} for m, u in zip(mult, used) for w in block]
        for block in (range(n, 2 * n), range(n))
    )
    deg = max((m.degree() for m in model.group_mult), default=0)
    product_and_jacobians = scaled_evaluator(len(mvars), scale, deg, [*mult, *d_left, *d_right])

    # (J Pi J^T)_ab, a < b, as the terms Pi_ij J_ai J_bj of entry (a, b), over the nonzero
    # Pi_ij (= -Pi_ji), J_ai and J_bj; Pi_ij is read from [Q_g Pi(h), Q_h Pi(g)] or its negative
    count = len(keys)
    at = [None] * (n * n)  # the weight slot of Pi_ij in the block JL
    for k, (i, j) in enumerate(keys):
        at[i * n + j], at[j * n + i] = k, 2 * count + k
    blocks = [  # per block, per row a: (i, the value slot of J_ai) where J_ai != 0
        (shift, [[(i, offset + a * n + i) for i in range(n) if jac[a * n + i]] for a in range(n)])
        for shift, offset, jac in ((0, n, d_left), (count, n + n * n, d_right))
    ]
    upper = [
        ((a, b), [(at[i * n + j] + shift, s, t) for shift, rows in blocks
                  for i, s in rows[a] for j, t in rows[b] if at[i * n + j] is not None])
        for a, b in itertools.combinations(range(n), 2)
    ]

    worst = 0.0
    for _ in range(pairs):
        g = model.sampler(rng)
        h = model.sampler(rng)
        values, q_j = product_and_jacobians(*g, *h)
        pi_gh, q_gh = entries(*[Fraction(v, q_j) for v in values[:n]])
        pi_h, q_h = entries(*h)
        pi_g, q_g = entries(*g)
        lhs = dict(zip(keys, pi_gh))
        weights = [q_g * p for p in pi_h] + [q_h * p for p in pi_g]
        weights += [-w for w in weights]
        # Pi(gh) - JL Pi(h) JL^T - JR Pi(g) JR^T times q_rhs * q_gh, where
        # JL Pi(h) JL^T has denominator q_j^2 q_h and JR Pi(g) JR^T q_j^2 q_g
        q_rhs = q_j * q_j * q_h * q_g
        # the residual matrix is antisymmetric, so its upper triangle decides it
        for key, terms in upper:
            rhs = sum([weights[w] * values[s] * values[t] for w, s, t in terms])
            num = lhs.get(key, 0) * q_rhs - q_gh * rhs
            if num:
                worst = max(worst, _magnitude(Fraction(num, q_rhs * q_gh)))
    return worst


def linearization_vs_cocommutator(
    model: PolynomialPoissonModel,
    delta_images: Sequence,
    frame: Sequence[Sequence],
    sign: int = 1,
) -> float:
    """The exact derivative of Pi at the base point along each frame
    direction, against the cocommutator image pushed through the frame.

    ``delta_images`` holds, per algebra basis vector, the sparse terms
    {(i, j): coeff} of delta(X_k); ``frame`` maps basis vectors to coordinate
    directions at the identity.  ``sign`` records the orientation calibration
    between the coordinate bracket and the cocommutator.  Each upper entry
    Pi_ab is differentiated exactly (``diff_terms``) and its gradient taken
    at the base point; the residuals are Fractions, and the float magnitude
    of the worst one is returned, 0.0 exactly when every one vanishes."""
    if model.base_point is None:
        raise ValueError("model needs a base point")
    n = model.dim
    if len(delta_images) != len(frame) or any(len(d) != n for d in frame):
        raise ValueError(f"need one delta image per frame direction, each direction of length {n}")
    fr = [[frac(c) for c in direction] for direction in frame]
    pairs = list(itertools.combinations(range(n), 2))
    grads = [[eval_terms(diff_terms(model.bracket_entry(a, b).terms, l), model.base_point)
              for l in range(n)] for a, b in pairs]
    worst = 0.0
    for direction, image in zip(fr, delta_images):
        for (a, b), grad in zip(pairs, grads):
            derivative = sum([d * g for d, g in zip(direction, grad)])
            residual = derivative - sign * sum(
                [c * (fr[i][a] * fr[j][b] - fr[i][b] * fr[j][a]) for (i, j), c in image.items()])
            if residual:
                worst = max(worst, _magnitude(residual))
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

    def _lines(self):
        """The CSV lines, header first, each ending in a newline."""
        yield "t," + ",".join(self.variables) + ",divint,constraint_drift\n"
        for t, x, dv, cd in zip(self.times, self.states, self.div_integral, self.constraint_drift):
            yield ",".join([f"{t:.17g}", *[f"{c:.17g}" for c in x], f"{dv:.17g}", f"{cd:.17g}"]) + "\n"

    def csv(self) -> str:
        return "".join(self._lines())

    def write_csv(self, fh) -> None:
        """Write ``csv()`` to the text file ``fh`` one line at a time, without
        building the whole text."""
        for line in self._lines():
            fh.write(line)


class ConstraintDriftError(RuntimeError):
    pass


@functools.lru_cache(maxsize=64)
def _rk4_loop(frozen: tuple[bool, ...], field: tuple, checks: tuple, zero_divergence: bool):
    """Compile rk4_flow's run for one shape: the frozen mask, the
    ``float_shape`` of the moving field components and that of the checks,
    the divergence (unless ``zero_divergence``) and the constraints.  The
    source holds no model data, so it is cached by shape.

    The generated ``_loop(w, dt, steps, drift_tolerance, times, states,
    div_int, drifts, x0, .., x{n-1})`` unpacks the coefficients the shapes
    leave out, the field's then the checks', from the tuple w to the locals
    w0.., and inlines every sum as straight-line code over them
    (``poly._sum_lines``).  The state lives in the locals x0..x{n-1}.  A
    frozen coordinate (its field component is the zero polynomial) is set to
    ``x_i + 0.0`` and never updated, since every stage would only recompute
    that; its powers are bound once to locals q{i}_{k}, the checks' before
    the start check and the field's after it.

    The checks at the start point return ``(0, None)`` when a residual is
    above 1e-12, and otherwise append its drift.  Each step makes two RK4
    half-steps of length h = dt / 2 on the moving coordinates (stages a, b,
    c, d at ``s``, ``y = s + half * a``, ``y = s + half * b`` and ``y = s +
    h * c``, then ``s + sixth * (a + 2.0 * b + 2.0 * c + d)``), each stage
    binding its powers p{i}_{k} and summing the field; it sums the checks
    after the step, adds the Simpson term ``simpson * (f0 + 4.0 * fm +
    f1)`` and carries f1 into the next step.  The loop appends each accepted
    step to the trace lists and returns None, or ``(k, drift)`` at the first
    step k whose state or integral is not finite (drift None) or whose drift
    passes the tolerance.

    At the midpoint only the divergence fm is read, so only its sum is
    formed, beside each power of a moving coordinate that a constraint uses
    and that neither that sum nor the next stage, the field at the same
    state, binds.  Float ``+`` and ``*`` never raise and only ``**`` can
    raise OverflowError, so every abort stays where it was.  With
    ``zero_divergence`` every divergence value and Simpson term is 0.0, so
    no divergence sum is formed and the integral recorded is 0.0.  (``2.0 *
    b`` is ``2 * b``: the int converts to 2.0 exactly.)"""
    moving = [i for i, f in enumerate(frozen) if not f]
    state = [f"x{i}" for i in range(len(frozen))]
    shifted = [f"x{i}" if f else f"y{i}" for i, f in enumerate(frozen)]
    held: dict[tuple[int, int], str] = {}  # frozen powers, bound once a run

    def left_out(shape) -> int:
        return sum(1 for terms in shape if type(terms) is tuple for _, s in terms if not s)

    def block(shape, first, point, value):
        """The statements that bind the moving powers at ``point`` and sum
        the maps of ``shape``, whose left-out coefficients are w{first}..,
        with the maps' values and the moving powers bound."""
        powers: dict[tuple[int, int], str] = {}

        def power(i: int, k: int) -> str:
            if k == 1:
                return point[i]
            if frozen[i]:
                return held.setdefault((i, k), f"q{i}_{k}")
            return powers.setdefault((i, k), f"p{i}_{k}")

        sums, values = _sum_lines(shape, (f"w{t}" for t in itertools.count(first)), power, value)
        return [f"{name} = {point[i]}**{k}" for (i, k), name in powers.items()] + sums, values, powers

    # the checks: the divergence f (unless zero), then the residuals r0..
    first = left_out(field)
    m = len(checks) - (not zero_divergence)

    def checked_at(suffix: str):
        names = ([] if zero_divergence else [f"f{suffix}"]) + [f"r{j}" for j in range(m)]
        lines, values, _ = block(checks, first, state, names.__getitem__)
        residuals = [f"abs({r})" for r in values[len(checks) - m:]]
        drift = f"max({', '.join(residuals)})" if m > 1 else "".join(residuals) or "0.0"
        return lines, residuals, drift

    start, residuals, start_drift = checked_at("0")
    check_powers = dict(held)
    end, _, drift = checked_at("1")

    # stage a at the state; b, c and d at y, one source with the letter
    # left as a format field (the arithmetic has no braces)
    a_lines, a, field_powers = block(field, 0, state, lambda j: f"a{moving[j]}")
    y_lines, y, _ = block(field, 0, shifted, lambda j: f"{{0}}{moving[j]}")
    (b_lines, b), (c_lines, c), (d_lines, d) = (
        ([line.format(letter) for line in y_lines], [v.format(letter) for v in y]) for letter in "bcd"
    )
    half_step = [*a_lines]
    for lines, previous, size in ((b_lines, a, "half"), (c_lines, b, "half"), (d_lines, c, "h")):
        half_step += [f"y{i} = x{i} + {size} * {v}" for i, v in zip(moving, previous)] + lines
    half_step += [
        f"x{i} = x{i} + sixth * ({ai} + 2.0 * {bi} + 2.0 * {ci} + {di})"
        for i, ai, bi, ci, di in zip(moving, a, b, c, d)
    ]
    # the midpoint: the divergence sum, and the constraints' moving powers
    # that neither it nor the next stage binds
    midpoint, covered = [], set(field_powers)
    if not zero_divergence:
        midpoint, _, div_powers = block(checks[:1], first, state, lambda j: "fm")
        covered |= div_powers.keys()
    constraint_powers = dict.fromkeys(
        (i, k) for terms in checks[len(checks) - m:] if type(terms) is tuple
        for e, _ in terms for i, k in enumerate(e) if k > 1 and not frozen[i]
    )
    midpoint += [f"p{i}_{k} = x{i}**{k}" for i, k in constraint_powers if (i, k) not in covered]

    step = [*half_step, *midpoint, *half_step, *end]
    prologue = ["h = dt / 2.0", "half, sixth = 0.5 * h, h / 6.0"]
    finite = [f"isfinite(x{i})" for i in moving]
    if not zero_divergence:
        step += ["acc += simpson * (f0 + 4.0 * fm + f1)", "f0 = f1"]
        prologue += ["simpson = dt / 6.0", "acc = 0.0"]
        finite.append("isfinite(acc)")
    if any(frozen):
        held_finite = " and ".join(f"isfinite(x{i})" for i, f in enumerate(frozen) if f)
        prologue.append(f"held_finite = {held_finite}")
        finite.append("held_finite")
    unpack = "".join(f"w{t}, " for t in range(first + left_out(checks)))
    coordinates = ", ".join(state)
    body = [
        "def _loop(w, dt, steps, drift_tolerance, times, states, div_int, drifts,",
        f"          {coordinates}):",
        *([f"    ({unpack}) = w"] if unpack else []),
        *(f"    x{i} = x{i} + 0.0" for i, f in enumerate(frozen) if f),
        *(f"    {name} = x{i}**{k}" for (i, k), name in check_powers.items()),
        *(f"    {line}" for line in start),
        *([f"    if {' or '.join(f'{r} > 1e-12' for r in residuals)}:", "        return 0, None"]
          if m else []),
        f"    drifts.append({start_drift})",
        *(f"    {name} = x{i}**{k}" for (i, k), name in held.items() if (i, k) not in check_powers),
        *(f"    {line}" for line in prologue),
        "    for k in range(1, steps + 1):",
        *(f"        {line}" for line in step),
        f"        if not ({' and '.join(finite) or 'True'}):",
        "            return k, None",
        f"        drift = {drift}",
        "        if drift > drift_tolerance:",
        "            return k, drift",
        "        times.append(k * dt)",
        f"        states.append([{coordinates}])",
        f"        div_int.append({'0.0' if zero_divergence else 'acc'})",
        "        drifts.append(drift)",
        "    return None",
    ]
    namespace: dict = {
        "__builtins__": {}, "range": range, "abs": abs, "max": max, "isfinite": math.isfinite
    }
    exec(compile("\n".join(body) + "\n", "<rk4_loop>", "exec"), namespace)
    return namespace["_loop"]


def flow_steps(T: float, dt: float) -> int:
    """round(T / dt), the number of RK4 steps of a run to T with step dt.  T
    and dt must be finite and positive and give at least one step; anything
    else raises ValueError."""
    for name, value in (("T", T), ("dt", dt)):
        if not math.isfinite(value) or value <= 0:
            raise ValueError(f"{name} must be a finite positive number, got {value}")
    if not 0.5 < T / dt < math.inf:  # round(T / dt) steps, at least one
        raise ValueError(f"T = {T} and dt = {dt} do not give a finite number of steps >= 1")
    return int(round(T / dt))


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

    The whole run, start-point check included, is one generated function
    (``_rk4_loop``) with the field, divergence and constraint sums inlined
    as straight-line float code, so the state is never a list and no stage
    is a call.  Its source depends only on the shape of those polynomials
    (``poly.float_shape``): it is compiled once per shape and cached, and
    each call passes its model's float coefficients in.  Two facts of the
    exact field hold for the whole run:

    - A coordinate whose field component is the zero polynomial is frozen:
      from the first stage on it is ``x_i + 0.0`` (which turns a -0.0 start
      into 0.0), and its powers are bound once.  The field's are bound after
      the start-point constraint check, so a violated start still raises
      ValueError before a frozen power can overflow.
    - With the divergence (log density included) the zero polynomial, the
      integral is 0.0 at every step and no divergence sum is formed.  At the
      midpoint only the divergence is summed; a constraint is not, but each
      power of a moving coordinate it uses is still evaluated there unless
      the divergence or the next stage evaluates it.

    T and dt are checked by ``flow_steps``.
    """
    steps = flow_steps(T, dt)
    field = hamiltonian_vf(model, h)
    div = divergence(model, field, log_density)
    x = [float(c) for c in x0]
    if len(x) != model.dim:
        raise ValueError("start point length does not match the model dimension")
    frozen = tuple(c.is_zero() for c in field.components)
    zero_divergence = div.is_zero()
    field_shape, coefficients = float_shape([c for c, f in zip(field.components, frozen) if not f])
    checks = model.constraints if zero_divergence else [div, *model.constraints]
    checks_shape, check_coefficients = float_shape(checks)
    loop = _rk4_loop(frozen, field_shape, checks_shape, zero_divergence)
    trace = FlowTrace(model.vars, times=[0.0], states=[x], div_integral=[0.0], constraint_drift=[])
    abort = loop(
        (*coefficients, *check_coefficients), dt, steps, drift_tolerance,
        trace.times, trace.states, trace.div_integral, trace.constraint_drift, *x,
    )
    if abort is None:
        return trace
    k, drift = abort
    if not k:
        raise ValueError("initial point violates the constraints")
    if drift is None:
        raise ValueError(
            f"non-finite state or divergence integral at step {k} (t = {k * dt:g}, dt = {dt})"
        )
    raise ConstraintDriftError(
        f"constraint drift {drift:.3e} exceeded {drift_tolerance:.1e} at step {k}"
    )
