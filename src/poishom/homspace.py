"""Decision procedures for a homogeneous space (g, h) inside a bialgebra.

All questions are answered at the algebra level with exact arithmetic:
coisotropy of h, the subgroup type, the modular character of the annihilator,
existence of invariant and semi-invariant volume data, and the linear
feasibility test for multiplicative unimodularity.  Group-level exactness of
the resulting 1-cocycle is not decidable here; reports carry an explicit
"assumes simply connected group" flag instead.

The semi-invariant system [closedness; h | rhs] is built as sparse int rows
and eliminated once, on ints (``linalg.int_rref``).  The mu system is the
same rows plus the horizontal-field rows, and its elimination starts from
the semi-invariant system's reduced rows plus those rows.  Each int row is
a rational equation times a positive int, and both stacks span the row
space of the full rational stack; the reduced row echelon form of a matrix
is unique given its row space, so the pivot rows, hence the particular
solution (free variables at 0) and the null basis, are exactly those of
eliminating the full rational stack.  When the semi-invariant rows are
already inconsistent, so is the mu system, and nothing more is eliminated.

Volume data.  No verdict builds V0, the top wedge of h0 = ann(h).  Since h is
closed, ann(h) generates a differential ideal, so d V0 = -alpha ^ V0 with
alpha(h_i) = t_i = tr(ad_{h_i} on g/h), the quotient trace (the modular class
of the quotient, after Evens-Lu-Weinstein), and theta ^ V0 depends only on
theta|_h.  So d V0 = -theta0 ^ V0 exactly when theta0|_h = t, and d V0 = 0
exactly when t = 0.  t and chi_h = tr(ad on h) are both read from the bracket
table through the reduced basis of h (``Subalgebra.bracket_traces``), and each
pair checks t + chi_h = chi_g on h: the traces on g/h and on h add up to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from . import linalg
from .bialgebra import LieBialgebra
from .exterior import ExteriorElement, top_wedge
from .lie import Covector, LieAlgebra, Subalgebra, Vector, is_closed_one_form, sparse
from .linalg import integer_row

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


@dataclass(frozen=True)
class VolumeCertificate:
    """Volume data at the base point: the quotient traces t_i = tr(ad_{h_i} on
    g/h) on the basis of h.  V0 is invariant exactly when t = 0 (module docstring)."""

    traces: tuple[Fraction, ...]
    kind: str  # invariant | none


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
        if theta.algebra is not self.particular.algebra:
            raise ValueError("covector belongs to a different algebra")
        span = linalg.RowSpan([integer_row(sparse(v.coords)) for v in self.homogeneous])
        return span.contains(sparse(a - b for a, b in zip(theta.coords, self.particular.coords)))


# ---------------------------------------------------------------------------
# the linear systems
# ---------------------------------------------------------------------------


def _closedness_rows(L: LieAlgebra) -> list[dict]:
    """theta is closed exactly when it kills every [e_i, e_j]: one sparse int
    row per direction of a nonzero bracket, its int image divided by the gcd
    of its entries and signed to lead positive (a row that is a multiple of
    an earlier one adds nothing to the row space)."""
    directions = {}
    for _, image in sorted(L.ints.items()):
        g = math.gcd(*image.values()) * (1 if image[min(image)] > 0 else -1)
        directions.setdefault(tuple((k, image[k] // g) for k in sorted(image)), None)
    return list(map(dict, directions))


def _quotient_traces(h: Subalgebra) -> tuple[Fraction, ...]:
    """t_i = tr(ad_{h_i} on g/h) on the basis of h.  g/h is spanned by the
    unit vectors e_a off the pivots of ``h.span``, and [e_j, e_a] reduced mod
    h has e_a component v_a - sum_p v_p R_p[a], R_p being the reduced row of
    pivot p (whose entries off p are all on such free columns a), on ints."""
    scaled, one = h.span.scaled, h.span.scale
    free = [(a, a, one) for a in range(h.parent.dim) if a not in scaled]
    return h.bracket_traces(free + [(a, p, -x) for p in scaled for a, x in scaled[p].items()])


def _mu_rows(B: LieBialgebra, chi_g: Covector, chi_gs: Vector) -> list[dict]:
    """Linearized horizontal-field condition, one g-valued equation per basis
    vector X: 1/2 ([X, chi_g*] - i(chi_g) delta X) + i(theta0) delta X = 0, as
    int rows with the rhs in column g.dim, the e_k equation of X = e_i keyed
    (i, k).  With delta X read off the dual's ints over D, [X, chi_g*] off
    g's bracket rows over g.den, chi_g = chi / s and chi_g* = star / t on
    ints, each equation is multiplied by 2 L, L = lcm(D s, g.den t)."""
    g, D, cols = B.g, B.dual.den, B.g.dim
    s, chi = integer_row(sparse(chi_g.coords))
    t, star = integer_row(sparse(chi_gs.coords))
    L = math.lcm(D * s, g.den * t)
    eqs: dict[tuple[int, int], dict] = {}
    # on e_k, i(theta) (e_a ^ e_b) = theta_a d_bk - theta_b d_ak, (delta e_i)^{ab} = c / D
    for (a, b), image in B.dual.ints.items():
        for i, c in image.items():
            eqs.setdefault((i, b), {})[a] = c
            eqs.setdefault((i, a), {})[b] = -c
    for row in eqs.values():  # 2 L times the theta terms and 1/2 i(chi_g) delta e_i
        i_chi = sum([c * chi[a] for a, c in row.items() if a in chi])
        for a in row:
            row[a] *= 2 * L // D
        row[cols] = i_chi * (L // (D * s))
    for i in range(cols):  # and -1/2 [e_i, chi_g*], from the brackets [e_j, e_i]
        for j, bracket in g.bracket_rows[i]:
            for k, c in bracket if j in star else ():
                row = eqs.setdefault((i, k), {})
                row[cols] = row.get(cols, 0) + star[j] * c * (L // (g.den * t))
    return list(eqs.values())


def _preferred_witness(
    chi: Covector, rows: list[dict], reduced: tuple[list[dict], list[int]], degenerate_first: bool
) -> tuple[Optional[Covector], linalg.Matrix]:
    """Solve the affine system given by the int rows (rhs in column g.dim)
    for theta0, preferring the canonical cocycles chi_g and chi_g/2 over the
    raw pivot solution when they are solutions.  ``reduced`` is ``int_rref``
    of a stack of rows with the same span.  Each candidate is tested on ints,
    scaled by the lcm s of its denominators: row . (s theta) = s rhs.
    Returns (theta0 or None when infeasible, null space basis)."""
    cols = chi.algebra.dim
    part, null = linalg.read_solution(*reduced, cols)
    if part is None:
        return None, null
    half = Fraction(1, 2) * chi
    for cand in [half, chi] if degenerate_first else [chi, half]:
        s, theta = integer_row(sparse(cand.coords))
        if all(
            sum([x * theta[k] for k, x in row.items() if k in theta]) == s * row.get(cols, 0)
            for row in rows
        ):
            return cand, null
    return Covector(chi.algebra, part), null


# ---------------------------------------------------------------------------
# one analysis of the pair (g, h)
# ---------------------------------------------------------------------------


class _Analysis:
    """Everything the verdicts on one pair (g, h) read, each piece computed
    at most once.  Every public function below builds one and reads it."""

    def __init__(self, S: HomogeneousSpaceSpec):
        self.S = S
        self.g = S.bialgebra.g

    @cached_property
    def h0(self) -> Subalgebra:
        """h0 = ann(h) inside (g*, [.,.]_*), on the int rows of ann(h) read
        off h's span; its one RowSpan serves the closure and ideal tests and
        the modular character."""
        rows = self.g.annihilator_rows(self.S.h)
        return Subalgebra.from_int_rows(self.S.bialgebra.dual, rows, verify=False)

    @cached_property
    def coisotropic(self) -> bool:
        """h0 is a subalgebra of g* exactly when the quotient is coisotropic."""
        return self.h0.is_closed()

    @cached_property
    def subgroup_type(self) -> str:
        if not self.coisotropic:
            return NOT_COISOTROPIC
        return PL_SUBGROUP if self.h0.is_ideal() else COISOTROPIC_ONLY

    @cached_property
    def chi_g(self) -> Covector:
        return self.g.modular_character()

    @cached_property
    def chi_gs(self) -> Vector:
        return self.S.bialgebra.dual_modular_character()

    @cached_property
    def restriction_rhs(self) -> linalg.Row:
        """chi_g - chi_h on the basis of h."""
        chi_h = self.S.h.modular_character_values()
        return [self.chi_g(v) - c for v, c in zip(self.S.h.basis, chi_h)]

    @cached_property
    def chi_h0(self) -> tuple[tuple[Fraction, ...], Vector]:
        if not self.coisotropic:
            raise ValueError("h0 is not a subalgebra: the quotient is not coisotropic")
        values = self.h0.modular_character_values()
        lift = [Fraction(0)] * self.g.dim
        for p, x in self.h0.span.lift(values).items():
            lift[p] = x
        return values, Vector(self.g, lift)

    @cached_property
    def volume(self) -> VolumeCertificate:
        traces = _quotient_traces(self.S.h)
        if list(traces) != self.restriction_rhs:  # t + chi_h = chi_g on h
            raise AssertionError("the traces on g/h and on h do not add up to chi_g on h")
        return VolumeCertificate(traces, "none" if any(traces) else "invariant")

    @cached_property
    def semi_rows(self) -> list[dict]:
        """Closedness of theta0 and theta0|_h = chi_g|_h - chi_h, as int rows
        with the rhs in column g.dim: the row of h_i is s_i h_i on ints
        (``int_basis``) times the denominator of s_i times its rhs value."""
        rows, cols = _closedness_rows(self.g), self.g.dim
        for (s, b), value in zip(self.S.h.int_basis, self.restriction_rhs):
            value *= s
            rows.append({**{k: x * value.denominator for k, x in b.items()}, cols: value.numerator})
        return rows

    @cached_property
    def semi_reduced(self) -> tuple[list[dict], list[int]]:
        """The one elimination of [closedness; h | rhs]: the semi-invariant
        solve reads it, and the mu solve starts from its reduced rows."""
        return linalg.int_rref(self.semi_rows)

    @cached_property
    def semi_invariant(self) -> tuple[Optional[Covector], linalg.Matrix]:
        return _preferred_witness(
            self.chi_g, self.semi_rows, self.semi_reduced, degenerate_first=False
        )

    @cached_property
    def mu(self) -> tuple[Optional[Covector], linalg.Matrix]:
        """The semi-invariant system extended by the horizontal-field rows.
        Its reduced form is that of the semi-invariant system's reduced rows
        stacked on the horizontal rows: the two stacks span the same row
        space, and the reduced form depends on nothing else."""
        red, pivots = self.semi_reduced
        if self.g.dim in pivots:  # the semi-invariant rows alone are inconsistent
            return None, []
        horizontal = _mu_rows(self.S.bialgebra, self.chi_g, self.chi_gs)
        reduced = linalg.int_rref(red + horizontal)
        return _preferred_witness(
            self.chi_g, self.semi_rows + horizontal, reduced, degenerate_first=self.S.h.dim == 0
        )

    @cached_property
    def report(self) -> UnimodularityReport:
        values, lift = self.chi_h0
        unimodular = not any(values)
        witness, null = self.mu if unimodular else (None, [])
        if witness is not None:
            # re-verify the witness before reporting: theta0|_h equals the
            # quotient traces (d V0 = -theta0 ^ V0, by the lemma), then closedness
            if tuple(witness(v) for v in self.S.h.basis) != self.volume.traces:
                raise AssertionError("witness does not restrict to the quotient traces")
            if not is_closed_one_form(self.g, witness):
                raise AssertionError("witness is not closed")
        status = MU_FAILS_I if not unimodular else MU_FAILS_II if witness is None else MU_OK
        return UnimodularityReport(
            chi_h0=values,
            x_h0=lift,
            x_h0_in_h=self.S.h.span.contains(sparse(lift.coords)),
            h0_unimodular=unimodular,
            mu_status=status,
            mu_witness_theta0=witness,
            cocycle_solution_space_dim=len(null),
        )


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def coisotropy_check(S: HomogeneousSpaceSpec) -> bool:
    """h0 is a subalgebra of g* exactly when the quotient is coisotropic."""
    return _Analysis(S).coisotropic


def subgroup_type(S: HomogeneousSpaceSpec) -> str:
    return _Analysis(S).subgroup_type


def chi_h0(S: HomogeneousSpaceSpec) -> tuple[tuple[Fraction, ...], Vector]:
    """Modular character of (h0, [.,.]_*) on the annihilator basis, together
    with a lift x in g satisfying xi(x) = chi(xi) for every xi in h0."""
    return _Analysis(S).chi_h0


def canonical_v0(S: HomogeneousSpaceSpec) -> ExteriorElement:
    """Top wedge of the annihilator basis (a generator of the line
    Lambda^(m-n) h0).  The verdicts never build it: see the module docstring."""
    return top_wedge(S.bialgebra.g, S.bialgebra.g.annihilator(S.h))


def invariant_volume_exists(S: HomogeneousSpaceSpec) -> tuple[bool, VolumeCertificate]:
    cert = _Analysis(S).volume
    return cert.kind == "invariant", cert


def semi_invariant_solutions(S: HomogeneousSpaceSpec) -> SemiInvariantSolutions:
    """All closed theta0 with theta0|_h = chi_g|_h - chi_h, as an affine set."""
    witness, null = _Analysis(S).semi_invariant
    if witness is None:
        return SemiInvariantSolutions(feasible=False, particular=None)
    g = S.bialgebra.g
    return SemiInvariantSolutions(
        feasible=True, particular=witness, homogeneous=[Covector(g, v) for v in null]
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
    A = _Analysis(S)
    if not A.coisotropic:
        raise ValueError("multiplicative unimodularity requires a coisotropic quotient")
    return A.report


# ---------------------------------------------------------------------------
# cross-checks and reporting
# ---------------------------------------------------------------------------


def lu_crosscheck(S: HomogeneousSpaceSpec) -> bool:
    """Check, on every annihilator basis covector xi, that the modular
    character of l = h (+) h0 inside the double agrees with the pairing
    against -chi_g* + 2 x_h0.  Each xi is read as h0's int row (s, s xi), and
    s chi_l(xi) is compared with the pairing of s xi.  l's int rows are h's
    next to h0's moved by m = dim g columns; they are block diagonal in
    (e_i, e^a), so l's span is the direct sum of h's and h0's, with no
    elimination.  l is still tested for closure in the bialgebra's one copy
    of the double, and a violation raises.  Only the pairs with a factor in
    h0 are bracketed: the double's bracket on g is g's, and the spec refuses
    an h not verified closed in g.  The h0 x h0 pairs stay; they decide
    coisotropy again, in the double, apart from ``_Analysis``."""
    A = _Analysis(S)
    if not A.coisotropic:
        raise ValueError("the Lagrangian subalgebra h + h0 needs a coisotropic quotient")
    D, m = S.bialgebra.double, S.bialgebra.dim
    rows = S.h.int_basis + [(s, {k + m: x for k, x in b.items()}) for s, b in A.h0.int_basis]
    span = linalg.RowSpan.direct_sum(S.h.span, A.h0.span, m)
    lag = Subalgebra.from_int_rows(D, rows, verify=False, span=span)
    if not lag.is_closed(known=S.h.dim):
        raise ValueError("basis does not span a subalgebra")
    chi_l = lag.modular_character_values()
    target = (-1 * A.chi_gs + 2 * A.chi_h0[1]).coords
    return all(
        c * s == sum(x * target[k] for k, x in row.items())
        for c, (s, row) in zip(chi_l[S.h.dim :], A.h0.int_basis)
    )


def classification_row(S: HomogeneousSpaceSpec) -> dict:
    A = _Analysis(S)
    row = {
        "name": S.name,
        "coisotropic": A.coisotropic,
        "subgroup_type": A.subgroup_type,
        "invariant_volume": A.volume.kind == "invariant",
        "semi_invariant": A.semi_invariant[0] is not None,
    }
    if not A.coisotropic:
        row.update(chi_h0_zero=None, mu_status=None, witness_theta0=None)
        return row
    report, witness = A.report, A.report.mu_witness_theta0
    row["chi_h0_zero"] = report.h0_unimodular
    row["mu_status"] = report.mu_status
    row["witness_theta0"] = repr(witness) if witness is not None else None
    return row


def classification_report(specs: Sequence[HomogeneousSpaceSpec]) -> list[dict]:
    return [classification_row(S) for S in specs]
