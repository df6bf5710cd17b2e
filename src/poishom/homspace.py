"""Decision procedures for a homogeneous space (g, h) inside a bialgebra.

All questions are answered at the algebra level with exact arithmetic:
coisotropy of h, the subgroup type, the modular character of the annihilator,
existence of invariant and semi-invariant volume data, and the linear
feasibility test for multiplicative unimodularity.  Group-level exactness of
the resulting 1-cocycle is not decidable here; reports carry an explicit
"assumes simply connected group" flag instead.

The semi-invariant system [closedness; h | rhs] is eliminated once.  The mu
system is the same rows plus the horizontal-field rows, and its elimination
starts from the semi-invariant system's nonzero reduced rows plus those
rows.  Both stacks span the same row space, and the reduced row echelon form
of a matrix is unique given its row space, so the pivot rows, hence the
particular solution (free variables at 0) and the null basis, are exactly
those of eliminating the full stack.  When the semi-invariant rows are
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
        diff = [a - b for a, b in zip(theta.coords, self.particular.coords)]
        return linalg.in_span([list(v.coords) for v in self.homogeneous], diff)


# ---------------------------------------------------------------------------
# the linear systems
# ---------------------------------------------------------------------------


def _closedness_rows(L: LieAlgebra) -> linalg.Matrix:
    """theta is closed exactly when it kills every [e_i, e_j]: one row per
    direction of a nonzero bracket, its int image divided by the gcd of its
    entries and signed to lead positive (a row that is a multiple of an
    earlier one adds nothing to the row space)."""
    zero, n, directions = Fraction(0), L.dim, {}
    for _, image in sorted(L.ints.items()):
        g = math.gcd(*image.values()) * (1 if image[min(image)] > 0 else -1)
        directions.setdefault(tuple((k, image[k] // g) for k in sorted(image)), None)
    return [[Fraction(d[k]) if k in d else zero for k in range(n)] for d in map(dict, directions)]


def _quotient_traces(h: Subalgebra) -> tuple[Fraction, ...]:
    """t_i = tr(ad_{h_i} on g/h) on the basis of h.  g/h is spanned by the
    unit vectors e_a off the pivots of ``h.span``, and [e_j, e_a] reduced mod
    h has e_a component v_a - sum_p v_p R_p[a], R_p being the reduced row of
    pivot p (whose entries off p are all on such free columns a), on ints."""
    scaled, one = h.span.scaled, h.span.scale
    free = [(a, a, one) for a in range(h.parent.dim) if a not in scaled]
    return h.bracket_traces(free + [(a, p, -x) for p in scaled for a, x in scaled[p].items()])


def _mu_rows(B: LieBialgebra, chi_g: Covector, chi_gs: Vector) -> tuple[linalg.Matrix, linalg.Row]:
    """Linearized horizontal-field condition, one g-valued equation per basis
    vector: 1/2 ([X, chi_g*] - i(chi_g) delta X) + i(theta0) delta X = 0."""
    g, chi = B.g, chi_g.coords
    rows, rhs = [], []
    for i in range(g.dim):
        bracket = sparse(g.bracket(g.basis_vector(i), chi_gs).coords)  # [X, chi_g*]
        # component on e_k of i(theta) (e_a ^ e_b) = theta_a d_bk - theta_b d_ak
        block: dict[int, dict[int, Fraction]] = {}
        for (a, b), c in B.delta.images[i].terms.items():
            row_b, row_a = block.setdefault(b, {}), block.setdefault(a, {})
            row_b[a] = row_b.get(a, 0) + c
            row_a[b] = row_a.get(b, 0) - c
        for k in range(g.dim):
            entries = block.get(k, {})
            # -1/2 ([X, chi_g*] - i(chi_g) delta X) on e_k; i(chi_g) delta X is the block at chi_g
            i_chi = sum((c * chi[a] for a, c in entries.items()), Fraction(0))
            rhs_val = (i_chi - bracket.get(k, 0)) / 2
            if any(entries.values()) or rhs_val:
                row = [Fraction(0)] * g.dim
                for a, c in entries.items():
                    row[a] = c
                rows.append(row)
                rhs.append(rhs_val)
    return rows, rhs


def _preferred_witness(
    chi: Covector,
    rows: linalg.Matrix,
    rhs: linalg.Row,
    reduced: tuple[linalg.Matrix, list[int]],
    degenerate_first: bool,
) -> tuple[Optional[Covector], linalg.Matrix]:
    """Solve the affine system rows @ theta0 = rhs for theta0, preferring the
    canonical cocycles chi_g and chi_g/2 over the raw pivot solution when
    they are solutions.  ``reduced`` is the rref of a stack of augmented rows
    with the same span as [rows | rhs].  Returns (theta0 or None when
    infeasible, null space basis)."""
    part, null = linalg.read_solution(*reduced, chi.algebra.dim)
    if part is None:
        return None, null
    half = Fraction(1, 2) * chi
    candidates = [half, chi] if degenerate_first else [chi, half]
    for cand in candidates:
        support = [(k, x) for k, x in enumerate(cand.coords) if x]
        if all(
            sum((row[k] * x for k, x in support if row[k]), Fraction(0)) == b
            for row, b in zip(rows, rhs)
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
    def ann(self) -> list[Covector]:
        return self.g.annihilator(self.S.h)

    @cached_property
    def h0(self) -> Subalgebra:
        """h0 inside (g*, [.,.]_*); its one RowSpan serves the closure and
        ideal tests and the modular character."""
        dual = self.S.bialgebra.dual
        return Subalgebra(dual, [Vector(dual, xi.coords) for xi in self.ann], verify=False)

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
    def semi_rows(self) -> tuple[linalg.Matrix, linalg.Row]:
        """Closedness of theta0 and theta0|_h = chi_g|_h - chi_h."""
        rows = _closedness_rows(self.g)
        rhs = [Fraction(0)] * len(rows)
        return rows + [list(v.coords) for v in self.S.h.basis], rhs + self.restriction_rhs

    @cached_property
    def semi_reduced(self) -> tuple[linalg.Matrix, list[int]]:
        """The one elimination of [closedness; h | rhs]: the semi-invariant
        solve reads it, and the mu solve starts from its nonzero rows."""
        rows, rhs = self.semi_rows
        return linalg.rref([row + [b] for row, b in zip(rows, rhs)])

    @cached_property
    def semi_invariant(self) -> tuple[Optional[Covector], linalg.Matrix]:
        return _preferred_witness(
            self.chi_g, *self.semi_rows, self.semi_reduced, degenerate_first=False
        )

    @cached_property
    def mu(self) -> tuple[Optional[Covector], linalg.Matrix]:
        """The semi-invariant system extended by the horizontal-field rows.
        Its reduced form is that of the semi-invariant system's nonzero
        reduced rows stacked on the horizontal rows: the two stacks span the
        same row space, and the reduced form depends on nothing else."""
        red, pivots = self.semi_reduced
        if self.g.dim in pivots:  # the semi-invariant rows alone are inconsistent
            return None, []
        rows, rhs = self.semi_rows
        r3, b3 = _mu_rows(self.S.bialgebra, self.chi_g, self.chi_gs)
        reduced = linalg.rref(red[: len(pivots)] + [row + [b] for row, b in zip(r3, b3)])
        return _preferred_witness(
            self.chi_g, rows + r3, rhs + b3, reduced, degenerate_first=self.S.h.dim == 0
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
    against -chi_g* + 2 x_h0.  l's basis is block diagonal in (e_i, e^a), so
    its span is the direct sum of h's and h0's, with no elimination; l is
    still tested for closure in the bialgebra's one copy of the double."""
    A = _Analysis(S)
    if not A.coisotropic:
        raise ValueError("the Lagrangian subalgebra h + h0 needs a coisotropic quotient")
    D, m = S.bialgebra.double, S.bialgebra.dim
    zeros = [Fraction(0)] * m
    vectors = [Vector(D, list(v.coords) + zeros) for v in S.h.basis]
    vectors += [Vector(D, zeros + list(xi.coords)) for xi in A.ann]
    span = linalg.RowSpan.direct_sum(S.h.span, A.h0.span, m)
    chi_l = Subalgebra(D, vectors, span=span).modular_character_values()
    target = -1 * A.chi_gs + 2 * A.chi_h0[1]
    n = S.h.dim
    return all(chi_l[n + r] == xi(target) for r, xi in enumerate(A.ann))


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
