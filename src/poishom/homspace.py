"""Decision procedures for a homogeneous space (g, h) inside a bialgebra.

All questions are answered at the algebra level with exact arithmetic:
coisotropy of h, the subgroup type, the modular character of the annihilator,
existence of invariant and semi-invariant volume data, and the linear
feasibility test for multiplicative unimodularity.  Group-level exactness of
the resulting 1-cocycle is not decidable here; reports carry an explicit
"assumes simply connected group" flag instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .bialgebra import LieBialgebra, double_algebra
from .exterior import (
    ExteriorElement,
    ce_differential,
    interior,
    theta0_from_v0,
    top_wedge,
)
from .lie import Covector, LieAlgebra, Subalgebra, Vector, is_closed_one_form, restrict_covector
from .linalg import frac

SIMPLY_CONNECTED_CAVEAT = (
    "algebra-level verdict: the closed 1-cocycle integrates to a multiplicative "
    "function when the group is simply connected"
)

MU_OK = "multiplicative_unimodular"
MU_FAILS_I = "fails_condition_i"
MU_FAILS_II = "fails_condition_ii"

PL_SUBGROUP = "poisson_lie_subgroup"
COISOTROPIC_ONLY = "coisotropic_only"
NOT_COISOTROPIC = "not_coisotropic"


@dataclass(frozen=True)
class HomogeneousSpaceSpec:
    """A bialgebra together with a distinguished subalgebra h."""

    name: str
    bialgebra: LieBialgebra
    h: Subalgebra

    def __post_init__(self):
        if self.h.parent is not self.bialgebra.g:
            raise ValueError("subalgebra does not live in the bialgebra's algebra")
        if not self.h.verified:
            raise ValueError("subalgebra must be verified closed under the bracket")


@dataclass
class VolumeCertificate:
    """Volume data at the base point: a top element of the annihilator and,
    for the semi-invariant case, the covector with d V0 = -theta0 ^ V0."""

    v0: ExteriorElement
    theta0: Optional[Covector]
    kind: str  # invariant | semi_invariant_algebra_level | none

    def __post_init__(self):
        L = self.v0.algebra
        dv0 = ce_differential(L, self.v0)
        if self.kind == "invariant":
            if not dv0.is_zero():
                raise ValueError("invariant certificate requires d V0 = 0")
        elif self.kind == "semi_invariant_algebra_level":
            if self.theta0 is None:
                raise ValueError("semi-invariant certificate requires theta0")
            rhs = -1 * ExteriorElement.from_vector(self.theta0).wedge(self.v0)
            if dv0 != rhs:
                raise ValueError("certificate violates d V0 = -theta0 ^ V0")


@dataclass
class UnimodularityReport:
    chi_h0: tuple[Fraction, ...]
    x_h0: Vector
    x_h0_in_h: bool
    h0_unimodular: bool
    mu_status: str
    mu_witness_theta0: Optional[Covector]
    cocycle_solution_space_dim: int
    assumes_simply_connected: bool = True

    def __post_init__(self):
        if self.mu_status == MU_OK:
            if not self.h0_unimodular:
                raise ValueError("multiplicative unimodularity requires unimodular h0")
            if self.mu_witness_theta0 is None:
                raise ValueError("multiplicative unimodularity requires a witness")


@dataclass
class SemiInvariantSolutions:
    feasible: bool
    particular: Optional[Covector]
    homogeneous: list[Covector] = field(default_factory=list)
    note: str = SIMPLY_CONNECTED_CAVEAT

    @property
    def dimension(self) -> int:
        return len(self.homogeneous)

    def contains(self, theta: Covector) -> bool:
        if not self.feasible:
            return False
        diff = [a - b for a, b in zip(theta.coords, self.particular.coords)]
        return linalg.in_span([list(v.coords) for v in self.homogeneous], diff)


# ---------------------------------------------------------------------------
# basic structure of the pair (g, h)
# ---------------------------------------------------------------------------


def annihilator_in_dual(S: HomogeneousSpaceSpec) -> list[Vector]:
    """The annihilator basis, reinterpreted as vectors of the dual algebra."""
    dual = S.bialgebra.dual
    return [Vector(dual, xi.coords) for xi in S.bialgebra.g.annihilator(S.h)]


def coisotropy_check(S: HomogeneousSpaceSpec) -> bool:
    """h0 is a subalgebra of g* exactly when the quotient is coisotropic."""
    ann = annihilator_in_dual(S)
    if not ann:
        return True
    return S.bialgebra.dual.is_subalgebra(ann)


def subgroup_type(S: HomogeneousSpaceSpec) -> str:
    if not coisotropy_check(S):
        return NOT_COISOTROPIC
    dual = S.bialgebra.dual
    ann = annihilator_in_dual(S)
    rows = [list(v.coords) for v in ann]
    for xi in ann:
        for a in range(dual.dim):
            image = dual.bracket(xi, dual.basis_vector(a))
            if not linalg.in_span(rows, list(image.coords)):
                return COISOTROPIC_ONLY
    return PL_SUBGROUP


def h0_subalgebra(S: HomogeneousSpaceSpec) -> Subalgebra:
    if not coisotropy_check(S):
        raise ValueError("h0 is not a subalgebra: the quotient is not coisotropic")
    return Subalgebra(S.bialgebra.dual, annihilator_in_dual(S), verify=True)


def chi_h0(S: HomogeneousSpaceSpec) -> tuple[tuple[Fraction, ...], Vector]:
    """Modular character of (h0, [.,.]_*) on the annihilator basis, together
    with a lift x in g satisfying xi(x) = chi(xi) for every xi in h0."""
    sub = h0_subalgebra(S)
    values = sub.modular_character_values()
    rows = [list(v.coords) for v in sub.basis]
    lift = linalg.solve(rows, list(values))
    if lift is None:  # the pairing system is always consistent
        raise AssertionError("annihilator pairing system must be solvable")
    return values, Vector(S.bialgebra.g, lift)


# ---------------------------------------------------------------------------
# volume-form feasibility systems
# ---------------------------------------------------------------------------


def _closedness_rows(L: LieAlgebra) -> list[list[Fraction]]:
    rows = []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            image = L.bracket_basis(i, j)
            if image:
                row = [Fraction(0)] * L.dim
                for k, c in image.items():
                    row[k] = c
                rows.append(row)
    return rows


def _restriction_rows(S: HomogeneousSpaceSpec) -> tuple[list[list[Fraction]], list[Fraction]]:
    chi_g = S.bialgebra.g.modular_character()
    chi_h_vals = S.h.modular_character_values()
    rows, rhs = [], []
    for v, chv in zip(S.h.basis, chi_h_vals):
        rows.append(list(v.coords))
        rhs.append(chi_g(v) - chv)
    return rows, rhs


def _mu_rows(S: HomogeneousSpaceSpec) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Linearized horizontal-field condition, one g-valued equation per basis
    vector: 1/2 ([X, chi_g*] - i(chi_g) delta X) + i(theta0) delta X = 0."""
    B = S.bialgebra
    g = B.g
    chi_g = g.modular_character()
    chi_gs = B.dual_modular_character()
    rows, rhs = [], []
    for i in range(g.dim):
        delta_i = B.delta.images[i]
        constant = g.bracket(g.basis_vector(i), chi_gs).coords
        correction = interior(chi_g, delta_i)
        corr = [Fraction(0)] * g.dim
        for (a,), c in correction.terms.items():
            corr[a] = c
        for k in range(g.dim):
            row = [Fraction(0)] * g.dim
            for (a, b), c in delta_i.terms.items():
                # component on e_k of i(theta) (e_a ^ e_b) = theta_a d_bk - theta_b d_ak
                if b == k:
                    row[a] += c
                if a == k:
                    row[b] -= c
            rhs_val = -(constant[k] - corr[k]) / 2
            if any(row) or rhs_val:
                rows.append(row)
                rhs.append(rhs_val)
    return rows, rhs


def _preferred_witness(
    S: HomogeneousSpaceSpec,
    rows: list[list[Fraction]],
    rhs: list[Fraction],
    degenerate_first: bool,
) -> Optional[Covector]:
    """Solve the affine system for theta0, preferring the canonical cocycles
    chi_g and chi_g/2 over the raw pivot solution when they are solutions."""
    g = S.bialgebra.g
    part, null = linalg.solve_affine(rows, rhs)
    if part is None:
        return None
    chi = g.modular_character()
    half = Fraction(1, 2) * chi
    candidates = [half, chi] if degenerate_first else [chi, half]
    for cand in candidates:
        if all(
            sum((r * c for r, c in zip(row, cand.coords)), Fraction(0)) == b
            for row, b in zip(rows, rhs)
        ):
            return cand
    return Covector(g, part)


def canonical_v0(S: HomogeneousSpaceSpec) -> ExteriorElement:
    """Top wedge of the annihilator basis (a generator of the line
    Lambda^(m-n) h0)."""
    return top_wedge(S.bialgebra.g, S.bialgebra.g.annihilator(S.h))


def invariant_volume_exists(S: HomogeneousSpaceSpec) -> tuple[bool, VolumeCertificate]:
    g = S.bialgebra.g
    chi_g = g.modular_character()
    chi_h_vals = S.h.modular_character_values()
    matches = all(chi_g(v) == chv for v, chv in zip(S.h.basis, chi_h_vals))
    v0 = canonical_v0(S)
    if matches:
        return True, VolumeCertificate(v0=v0, theta0=None, kind="invariant")
    return False, VolumeCertificate(v0=v0, theta0=None, kind="none")


def semi_invariant_solutions(S: HomogeneousSpaceSpec) -> SemiInvariantSolutions:
    """All closed theta0 with theta0|_h = chi_g|_h - chi_h, as an affine set."""
    g = S.bialgebra.g
    rows = _closedness_rows(g)
    rhs = [Fraction(0)] * len(rows)
    r2, b2 = _restriction_rows(S)
    rows += r2
    rhs += b2
    if not rows:
        # everything is a solution: abelian g with h = 0
        return SemiInvariantSolutions(
            feasible=True,
            particular=g.zero_covector(),
            homogeneous=[g.basis_covector(i) for i in range(g.dim)],
        )
    witness = _preferred_witness(S, rows, rhs, degenerate_first=False)
    if witness is None:
        return SemiInvariantSolutions(feasible=False, particular=None)
    null = linalg.nullspace(rows)
    return SemiInvariantSolutions(
        feasible=True,
        particular=witness,
        homogeneous=[Covector(g, v) for v in null],
    )


def multiplicative_unimodularity_check(S: HomogeneousSpaceSpec) -> UnimodularityReport:
    """Conditions for multiplicative unimodularity:

    i)  h0 unimodular;
    ii) a closed theta0 with theta0|_h = chi_g|_h - chi_h (the wedge identity
        for V0, by the top-annihilator lemma) solving the linear horizontal
        condition;
    the exactness condition on the group is reported as satisfied under
    simple connectedness rather than decided.
    """
    if not coisotropy_check(S):
        raise ValueError("multiplicative unimodularity requires a coisotropic quotient")
    chi_vals, lift = chi_h0(S)
    h_rows = [list(v.coords) for v in S.h.basis]
    in_h = linalg.in_span(h_rows, list(lift.coords)) if h_rows else lift.is_zero()
    unimodular = not any(chi_vals)

    g = S.bialgebra.g
    rows = _closedness_rows(g)
    rhs = [Fraction(0)] * len(rows)
    r2, b2 = _restriction_rows(S)
    rows += r2
    rhs += b2
    r3, b3 = _mu_rows(S)
    rows += r3
    rhs += b3

    if not unimodular:
        return UnimodularityReport(
            chi_h0=chi_vals,
            x_h0=lift,
            x_h0_in_h=in_h,
            h0_unimodular=False,
            mu_status=MU_FAILS_I,
            mu_witness_theta0=None,
            cocycle_solution_space_dim=0,
        )

    if not rows:
        witness = _preferred_witness(S, [[Fraction(0)] * g.dim], [Fraction(0)], S.h.dim == 0)
        return UnimodularityReport(
            chi_h0=chi_vals,
            x_h0=lift,
            x_h0_in_h=in_h,
            h0_unimodular=True,
            mu_status=MU_OK,
            mu_witness_theta0=witness,
            cocycle_solution_space_dim=g.dim,
        )

    witness = _preferred_witness(S, rows, rhs, degenerate_first=S.h.dim == 0)
    if witness is None:
        return UnimodularityReport(
            chi_h0=chi_vals,
            x_h0=lift,
            x_h0_in_h=in_h,
            h0_unimodular=True,
            mu_status=MU_FAILS_II,
            mu_witness_theta0=None,
            cocycle_solution_space_dim=0,
        )
    # re-verify the witness against the wedge identity before reporting
    v0 = canonical_v0(S)
    dv0 = ce_differential(g, v0)
    rhs_form = -1 * ExteriorElement.from_vector(witness).wedge(v0)
    if dv0 != rhs_form:
        raise AssertionError("witness violates the wedge identity for V0")
    if not is_closed_one_form(g, witness):
        raise AssertionError("witness is not closed")
    return UnimodularityReport(
        chi_h0=chi_vals,
        x_h0=lift,
        x_h0_in_h=in_h,
        h0_unimodular=True,
        mu_status=MU_OK,
        mu_witness_theta0=witness,
        cocycle_solution_space_dim=len(linalg.nullspace(rows)),
    )


# ---------------------------------------------------------------------------
# cross-checks and reporting
# ---------------------------------------------------------------------------


def lu_crosscheck(S: HomogeneousSpaceSpec) -> bool:
    """Check, on every annihilator basis covector xi, that the modular
    character of l = h (+) h0 inside the double agrees with the pairing
    against -chi_g* + 2 x_h0."""
    if not coisotropy_check(S):
        raise ValueError("the Lagrangian subalgebra h + h0 needs a coisotropic quotient")
    B = S.bialgebra
    D = double_algebra(B)
    m = B.dim
    ann = B.g.annihilator(S.h)
    vectors = []
    for v in S.h.basis:
        vectors.append(Vector(D, list(v.coords) + [Fraction(0)] * m))
    for xi in ann:
        vectors.append(Vector(D, [Fraction(0)] * m + list(xi.coords)))
    sub = D.subalgebra(vectors, verify=True)
    chi_l = sub.modular_character_values()
    _, x_h0 = chi_h0(S)
    target = -1 * B.dual_modular_character() + 2 * x_h0
    n = S.h.dim
    for r, xi in enumerate(ann):
        if chi_l[n + r] != xi(target):
            return False
    return True


def classification_row(S: HomogeneousSpaceSpec) -> dict:
    kind = subgroup_type(S)
    row = {
        "name": S.name,
        "coisotropic": kind != NOT_COISOTROPIC,
        "subgroup_type": kind,
    }
    inv, _ = invariant_volume_exists(S)
    row["invariant_volume"] = inv
    row["semi_invariant"] = semi_invariant_solutions(S).feasible
    if kind == NOT_COISOTROPIC:
        row.update(chi_h0_zero=None, mu_status=None, witness_theta0=None)
        return row
    report = multiplicative_unimodularity_check(S)
    row["chi_h0_zero"] = report.h0_unimodular
    row["mu_status"] = report.mu_status
    row["witness_theta0"] = (
        repr(report.mu_witness_theta0) if report.mu_witness_theta0 is not None else None
    )
    return row


def classification_report(specs: Sequence[HomogeneousSpaceSpec]) -> list[dict]:
    return [classification_row(S) for S in specs]
