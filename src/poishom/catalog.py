"""Built-in catalog: the rotation and special-linear group structures, their
homogeneous quotients, and the coordinate Poisson models used by the dynamics
commands.

Each Lie algebra is one row of ``ALGEBRAS`` (labels, brackets) and each
bialgebra structure one row of ``STRUCTURES`` (its algebra and an r-matrix,
the cocommutator images, or the standard structure of
``sln_standard_bialgebra`` for sl(3)); ``algebra(name)`` and
``bialgebra(name, eta)`` build them, and every structure is re-validated on
construction (dual Jacobi, cocycle condition).  The scaling parameter
``eta`` is instantiated as an exact rational (default 1); all catalog
verdicts are generic in eta != 0, and a structure that scales with eta
refuses eta = 0.

Each group-level coordinate model is generated by ``model_on`` from its row
of ``GROUP_MODELS`` (structure, product table, frame) and its structure B,
whose r-matrix it reads as ``B.delta.r``.
The bracket is the Sklyanin bivector of -r, r^R - r^L (Semenov-Tian-Shansky,
"What is a classical r-matrix?", 1983): the model integrates -r, which it
records as ``cocommutator_sign = -1`` for the linearization spot check.  The
character fields are the left and right translates of B's dual modular
character, and the cocommutator images are B's.  The quotient-level
compartmental model is written out and carries sign +1.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .bialgebra import (
    CocommutatorMap,
    LieBialgebra,
    sln_basis_matrices,
    sln_standard_bialgebra,
)
from .coord import PolynomialPoissonModel, PolyVectorField, field_from_character_data
from .exterior import ExteriorElement
from .homspace import HomogeneousSpaceSpec
from .lie import LieAlgebra
from .linalg import frac, integer_row
from .poly import Polynomial

DEFAULT_SEED = 20250810


# ---------------------------------------------------------------------------
# Lie algebras and their bialgebra structures
# ---------------------------------------------------------------------------


# Each Lie algebra: (basis labels, {(i, j): {k: c}} for [e_i, e_j] = sum c e_k).
ALGEBRAS = {
    # [J1,J2] = J3, [J2,J3] = J1, [J3,J1] = J2
    "so3": (("J1", "J2", "J3"), {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}),
    # sl(2, R): [P1,J12] = -P2, [P2,J12] = -P1, [P1,P2] = J12
    "sl2-boost": (("P1", "P2", "J12"), {(0, 2): {1: -1}, (1, 2): {0: -1}, (0, 1): {2: 1}}),
    # sl(2, R): [J3,J+] = 2J+, [J3,J-] = -2J-, [J+,J-] = J3
    "sl2-triangular": (("J3", "J+", "J-"), {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}),
    # solvable: [X1,X3] = X2, [X2,X3] = -X2
    "solvable3": (("X1", "X2", "X3"), {(0, 2): {1: 1}, (1, 2): {1: -1}}),
    # R^2 x r_2: the only bracket is [X3,X4] = -X3
    "r2xr2": (("X1", "X2", "X3", "X4"), {(2, 3): {2: -1}}),
}

# Each bialgebra structure: (its algebra, how delta is given).  "r" is the
# coboundary of eta times the r-matrix {(X, Y): c}, sum c X ^ Y; the two
# presentations of one named sl(2) structure are separate catalog objects,
# identified only up to rescaling eta.  "images" gives delta by its images
# {index: {(i, j): c}} and carries no eta.  "standard" is the standard
# structure of ``sln_standard_bialgebra`` on sl(n), n given, which builds
# sl(n) itself.
STRUCTURES = {
    "so3-structure": ("so3", "r", {("J1", "J2"): 1}),
    "sl2-hyperbolic": ("sl2-boost", "r", {("P1", "P2"): 2}),
    "sl2-elliptic": ("sl2-boost", "r", {("J12", "P2"): 2}),
    "sl2-parabolic": ("sl2-boost", "r", {("J12", "P1"): 1, ("J12", "P2"): 1}),
    "sl2-hyperbolic-tri": ("sl2-triangular", "r", {("J+", "J-"): 1}),
    "sl2-elliptic-tri": ("sl2-triangular", "r", {("J3", "J+"): 1, ("J3", "J-"): 1}),
    "sl2-parabolic-tri": ("sl2-triangular", "r", {("J3", "J+"): Fraction(1, 2)}),
    # delta(X3) = X1 ^ X2: the dual is the Heisenberg algebra
    "solvable3-structure": ("solvable3", "images", {2: {(0, 1): 1}}),
    "r2xr2-structure": ("r2xr2", "images", {0: {(0, 1): 1}, 2: {(1, 2): 1}}),
    "sl3-standard-structure": ("sl3", "standard", 3),
}


def algebra(name: str) -> LieAlgebra:
    """The algebra ``name`` of ``ALGEBRAS``."""
    labels, brackets = ALGEBRAS[name]
    return LieAlgebra(labels, brackets)


def bialgebra(name: str, eta=1) -> LieBialgebra:
    """The structure ``name`` of ``STRUCTURES`` at eta, which must be
    nonzero for a structure that scales with it."""
    algebra_name, kind, data = STRUCTURES[name]
    eta = frac(eta)
    if kind != "images" and eta == 0:
        raise ValueError(f"{name}: eta must be nonzero")
    if kind == "standard":
        return sln_standard_bialgebra(data, eta)
    L = algebra(algebra_name)
    if kind == "images":
        return LieBialgebra(L, CocommutatorMap.from_images(L, data))
    r = ExteriorElement.zero(L, 2, False)
    for (a, b), c in data.items():
        r = r + ExteriorElement.basis(L, (L.index(a), L.index(b)), False, eta * c)
    return LieBialgebra.from_rmatrix(L, r)


# ---------------------------------------------------------------------------
# homogeneous-space specs
# ---------------------------------------------------------------------------


# Each homogeneous space: (the name of its bialgebra, the basis labels of h).
HOMSPACES = {
    "subgroup-sphere": ("so3-structure", ("J3",)),
    "coisotropic-sphere": ("so3-structure", ("J1",)),
    **{
        f"{quotient}-{structure}": (f"sl2-{structure}{suffix}", (label,))
        for structure in ("hyperbolic", "elliptic", "parabolic")
        for quotient, suffix, label in (
            ("ads2", "", "J12"), ("h2", "", "P1"), ("lightcone", "-tri", "J+")
        )
    },
    "mu-plane": ("solvable3-structure", ("X1",)),
    "full-group": ("solvable3-structure", ()),
    "compartmental-quotient": ("r2xr2-structure", ("X4",)),
    "toda-n3": ("sl3-standard-structure", ("Q12", "Q13", "Q23")),
}


def homspace_on(name: str, B: LieBialgebra) -> HomogeneousSpaceSpec:
    """The catalog entry ``name`` with h taken in the already built ``B``."""
    labels = HOMSPACES[name][1]
    return HomogeneousSpaceSpec(name=name, bialgebra=B, h=B.g.subalgebra(list(labels)))


def build_homspace(name: str, eta=1) -> HomogeneousSpaceSpec:
    if name not in HOMSPACES:
        raise KeyError(f"unknown catalog entry {name!r}")
    return homspace_on(name, bialgebra(HOMSPACES[name][0], eta))


TABLE1_NAMES = ("subgroup-sphere", "coisotropic-sphere")
TABLE2_NAMES = tuple(
    f"{q}-{s}"
    for s in ("hyperbolic", "elliptic", "parabolic")
    for q in ("ads2", "h2", "lightcone")
)
EXTRA_NAMES = ("mu-plane", "full-group", "compartmental-quotient", "toda-n3")
HOMSPACE_NAMES = TABLE1_NAMES + TABLE2_NAMES + EXTRA_NAMES


# ---------------------------------------------------------------------------
# coordinate models
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CoordModelBundle:
    """A coordinate model plus its invariant-field data: generated from the
    catalog structure for a group model (``model_on``), written out for the
    compartmental and canonical models."""

    model: PolynomialPoissonModel
    left_chi: Optional[PolyVectorField] = None
    right_chi: Optional[PolyVectorField] = None
    vertical_fields: tuple[PolyVectorField, ...] = ()
    morse_frame: tuple[PolyVectorField, ...] = ()
    frame: tuple[tuple, ...] = ()
    delta_images: tuple[dict, ...] = ()
    cocommutator_sign: int = -1
    kernel_covector: Optional[tuple[Polynomial, ...]] = None
    kernel_witness: Optional[tuple] = None
    hamiltonian: Optional[Polynomial] = None
    flow_start: Optional[tuple] = None

    def horizontal_field(self) -> PolyVectorField:
        return field_from_character_data(self.model, self.left_chi, self.right_chi)


def _sphere_sampler(rng: random.Random):
    """The inverse stereographic image of (U, V, W) / 60.  The samplers work
    on ints over their draws' common denominator, one Fraction a coordinate."""
    U, V, W = (rng.randint(-5, 5) * (60 // rng.randint(1, 5)) for _ in range(3))
    S = U * U + V * V + W * W
    d = 3600 + S
    return (Fraction(3600 - S, d), Fraction(120 * U, d), Fraction(120 * V, d), Fraction(120 * W, d))


def _sl2_sampler(rng: random.Random):
    """(x, y, z, (1 + y z) / x) for x = a/b != 0, y = c/d and z = e/f."""
    while True:
        a, b = rng.randint(-5, 5), rng.randint(1, 4)
        if a:
            break
    c, d = rng.randint(-4, 4), rng.randint(1, 4)
    e, f = rng.randint(-4, 4), rng.randint(1, 4)
    return Fraction(a, b), Fraction(c, d), Fraction(e, f), Fraction(b * (d * f + c * e), a * d * f)


def _sl3_sampler(rng: random.Random):
    """L diag(d1, d2, 1/(d1 d2)) U, L and U unit triangular, each of their
    entries k/6, so that a product of r of them is over 6^r."""

    def small():
        return rng.randint(-3, 3) * (6 // rng.randint(1, 3))

    def small_nonzero():
        while True:
            c = small()
            if c:
                return c

    d1, d2 = small_nonzero(), small_nonzero()
    l21, l31, l32 = small(), small(), small()
    u12, u13, u23 = small(), small(), small()
    # lower @ diag(d1, d2, d3) @ upper, expanded over the zero entries of the
    # unit triangular factors; a = 36 l21 d1 and so on
    a, b, c = l21 * d1, l31 * d1, l32 * d2
    return (
        Fraction(d1, 6), Fraction(d1 * u12, 36), Fraction(d1 * u13, 36),
        Fraction(a, 36), Fraction(a * u12 + 36 * d2, 216), Fraction(a * u13 + 6 * d2 * u23, 216),
        Fraction(b, 36), Fraction(b * u12 + 6 * c, 216),
        Fraction(d1 * d2 * (b * u13 + c * u23) + 7776, 216 * d1 * d2),
    )


HALF = Fraction(1, 2)

# SU(2) as the unit quaternions x - y i - z j - t k, one line of its
# product table per coordinate p
_SU2_PRODUCT = (
    (0, 0, 0, 1), (0, 1, 1, -1), (0, 2, 2, -1), (0, 3, 3, -1),
    (1, 0, 1, 1), (1, 1, 0, 1), (1, 3, 2, 1), (1, 2, 3, -1),
    (2, 0, 2, 1), (2, 2, 0, 1), (2, 3, 1, -1), (2, 1, 3, 1),
    (3, 3, 0, 1), (3, 0, 3, 1), (3, 2, 1, 1), (3, 1, 2, -1),
)


def _matrix_product(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """The product table of n x n matrices, each given row by row."""
    return tuple(
        (i * n + j, i * n + k, k * n + j, 1) for i in range(n) for j in range(n) for k in range(n)
    )


@dataclass(frozen=True)
class GroupModel:
    """A Poisson-Lie group in coordinates, less what ``model_on`` derives from
    its catalog structure.  Elements of the Lie algebra are given by their
    coordinates at the identity; ``constraint``, ``hamiltonian`` and
    ``kernel`` take the coordinate polynomials."""

    structure: str
    variables: tuple[str, ...]
    product: tuple[tuple[int, int, int, int], ...]  # terms (p, s, t, c): (g h)_p += c g_s h_t
    frame: tuple[tuple, ...]  # the structure's basis vectors
    constraint: Callable
    base_point: tuple
    sampler: Callable
    hamiltonian: Callable
    vertical: tuple[tuple, ...] = ()  # whose left translates are the vertical fields
    morse: tuple[tuple, ...] = ()  # whose left translates are the Morse frame
    kernel: Optional[Callable] = None
    witness: Optional[tuple] = None
    flow_start: Optional[tuple] = None
    eta: Optional[int] = None  # a fixed eta; None takes the eta asked for


_SU2_FRAME = ((0, 0, 0, HALF), (0, 0, HALF, 0), (0, HALF, 0, 0))  # J1, J2, J3
_TRIANGULAR_FRAME = ((1, 0, 0, -1), (0, 1, 0, 0), (0, 0, 1, 0))  # J3, J+, J-
# P1, P2, J12 realized as (E12 - E21)/2, (E12 + E21)/2, diag(1, -1)/2
_BOOST_FRAME = ((0, HALF, -HALF, 0), (0, HALF, HALF, 0), (HALF, 0, 0, -HALF))


def _sl2(structure: str, frame: tuple, kernel: Callable, witness: tuple) -> GroupModel:
    return GroupModel(
        structure=structure,
        variables=("x", "y", "z", "t"),
        product=_matrix_product(2),
        frame=frame,
        constraint=lambda x, y, z, t: x * t - y * z - 1,
        base_point=(1, 0, 0, 1),
        sampler=_sl2_sampler,
        hamiltonian=lambda x, y, z, t: HALF * (x * x + y * y + z * z + t * t),
        vertical=(_BOOST_FRAME[0],),  # left P1 kills the two-sheeted-quotient energy
        kernel=kernel,
        witness=witness,
    )


GROUP_MODELS = {
    "su2": GroupModel(
        structure="so3-structure",
        variables=("x", "y", "z", "t"),
        product=_SU2_PRODUCT,
        frame=_SU2_FRAME,
        constraint=lambda x, y, z, t: x * x + y * y + z * z + t * t - 1,
        base_point=(1, 0, 0, 0),
        sampler=_sphere_sampler,
        hamiltonian=lambda x, y, z, t: (x * x + y * y) * (z * z + t * t),
        vertical=_SU2_FRAME[2:],
        morse=_SU2_FRAME[:2],
        kernel=lambda x, y, z, t: (0, 0, -t, z),
        witness=(0, 0, 1, 0),
        flow_start=(Fraction(2, 3), Fraction(1, 3), Fraction(2, 3), 0),
    ),
    "sl2-hyperbolic": _sl2(
        "sl2-hyperbolic-tri", _TRIANGULAR_FRAME, lambda x, y, z, t: (0, z, -y, 0), (1, 1, 1, 2)
    ),
    "sl2-elliptic": _sl2(
        "sl2-elliptic",
        _BOOST_FRAME,
        lambda x, y, z, t: (-(y + z), x - t, x - t, y + z),
        (2, 1, 1, 1),
    ),
    "sl2-parabolic": _sl2(
        "sl2-parabolic-tri", _TRIANGULAR_FRAME, lambda x, y, z, t: (-z, 0, x - t, z), (0, -1, 1, 0)
    ),
    # fixed at eta = 1; the vanishing-corner typo in the displayed horizontal
    # field is corrected by assembling (right - left)/2
    "toda-n3": GroupModel(
        structure="sl3-standard-structure",
        variables=tuple(f"a{i}{j}" for i in range(1, 4) for j in range(1, 4)),
        product=_matrix_product(3),
        frame=tuple(tuple(c for row in m for c in row) for m in sln_basis_matrices(3)[1]),
        constraint=lambda *a: (
            a[0] * (a[4] * a[8] - a[5] * a[7])
            - a[1] * (a[3] * a[8] - a[5] * a[6])
            + a[2] * (a[3] * a[7] - a[4] * a[6])
            - 1
        ),
        base_point=(1, 0, 0, 0, 1, 0, 0, 0, 1),
        sampler=_sl3_sampler,
        hamiltonian=lambda *a: sum(x * x for x in a),
        eta=1,
    ),
}


def _translates(product, a, n: int) -> tuple[list[dict], list[dict]]:
    """The left and right translates g a and a g of the element a, given in
    coordinates at the identity: per coordinate, one linear form {s: c} in
    the coordinates g_s of g."""
    left: list[dict] = [{} for _ in range(n)]
    right: list[dict] = [{} for _ in range(n)]
    for p, s, t, c in product:
        if a[t]:
            left[p][s] = left[p].get(s, 0) + c * a[t]
        if a[s]:
            right[p][t] = right[p].get(t, 0) + c * a[s]
    return left, right


def _monomial(n: int, *indices: int) -> tuple[int, ...]:
    """The exponent of the product of the variables ``indices``."""
    return tuple(indices.count(k) for k in range(n))


def _linear_field(variables, forms) -> PolyVectorField:
    n = len(variables)
    return PolyVectorField(
        variables,
        [Polynomial(variables, {_monomial(n, s): c for s, c in f.items()}) for f in forms],
    )


def _sklyanin(product, frame, r: ExteriorElement, n: int) -> dict:
    """The Sklyanin bivector r^R - r^L of -r, with r^L and r^R the left and
    right translates of r pushed through the frame, as {(i, j): {exponent:
    coefficient}} over i < j, each in descending exponent order.  It runs on
    ints: the frame times the lcm D of its denominators, r times its own den,
    and each term x_u x_v keyed by (u, v) until the one division at the end."""
    D = math.lcm(*(c.denominator for f in frame for c in f))
    den, ints = integer_row(r.terms)
    acc: dict = {}
    for (a, b), w in ints.items():
        la, ra = _translates(product, [int(c * D) for c in frame[a]], n)
        lb, rb = _translates(product, [int(c * D) for c in frame[b]], n)
        for A, B, s in ((la, lb, -w), (ra, rb, w)):
            # s (A^i B^j - A^j B^i) on the pair i < j
            for i, j in itertools.permutations(range(n), 2):
                key, t = ((i, j), s) if i < j else ((j, i), -s)
                entry = acc.setdefault(key, {})
                for u, x in A[i].items():
                    for v, y in B[j].items():
                        uv = (u, v) if u <= v else (v, u)
                        entry[uv] = entry.get(uv, 0) + t * x * y
    scale = den * D * D
    return {
        key: dict(sorted(((_monomial(n, *uv), Fraction(c, scale)) for uv, c in terms.items() if c),
                         reverse=True))
        for key, terms in sorted(acc.items())
    }


def model_on(name: str, B: LieBialgebra) -> CoordModelBundle:
    """The group model ``name`` on its coboundary structure B: the bracket is
    the Sklyanin bivector of -r, r = ``B.delta.r``, the character fields are
    the left and right translates of B's dual modular character, each
    vertical and Morse field is the left translate of its element, and the
    cocommutator is B's, all through the model's frame."""
    row = GROUP_MODELS[name]
    v, n, r = row.variables, len(row.variables), B.delta.r
    brackets = {key: Polynomial(v, t) for key, t in _sklyanin(row.product, row.frame, r, n).items()}
    mult: list[dict] = [{} for _ in range(n)]
    for p, s, t, c in row.product:
        mult[p][_monomial(2 * n, s, n + t)] = c
    X = [Polynomial.variable(v, s) for s in v]
    model = PolynomialPoissonModel(
        name,
        v,
        brackets,
        constraints=[row.constraint(*X)],
        base_point=row.base_point,
        poisson_lie=True,
        group_mult=[Polynomial(v + tuple(f"{s}'" for s in v), m) for m in mult],
        sampler=row.sampler,
    )
    coords = B.dual_modular_character().coords
    chi = [sum((c * f[i] for c, f in zip(coords, row.frame)), Fraction(0)) for i in range(n)]
    left, right = _translates(row.product, chi, n)
    zero = Polynomial.zero(v)

    def left_field(a) -> PolyVectorField:
        return _linear_field(v, _translates(row.product, a, n)[0])

    return CoordModelBundle(
        model=model,
        left_chi=_linear_field(v, left),
        right_chi=_linear_field(v, right),
        vertical_fields=tuple(map(left_field, row.vertical)),
        morse_frame=tuple(map(left_field, row.morse)),
        frame=row.frame,
        delta_images=tuple(dict(im.terms) for im in B.delta.images),
        kernel_covector=row.kernel and tuple(zero + c for c in row.kernel(*X)),
        kernel_witness=row.witness,
        hamiltonian=row.hamiltonian(*X),
        flow_start=row.flow_start,
    )


def toda_singular_point(a) -> tuple[Fraction, ...]:
    a = frac(a)
    return (0, a, 0, -1 / a, 0, 0, 0, 0, 1)


def _build_compartmental() -> CoordModelBundle:
    v = ("x1", "x2", "x3")
    x1, x2, x3 = (Polynomial.variable(v, n) for n in v)
    model = PolynomialPoissonModel(
        "compartmental",
        v,
        {(0, 1): x1 - 1, (1, 2): x3},
        base_point=(1, 0, 0),  # coordinates shifted so the base point sits at (1, 0, 0)
        poisson_lie=True,
    )
    return CoordModelBundle(
        model=model,
        frame=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        delta_images=({(0, 1): 1}, {}, {(1, 2): 1}),
        cocommutator_sign=1,
        hamiltonian=x1 + x2 + x3,
        flow_start=(1, 1, 1),
    )


def _build_canonical2d() -> CoordModelBundle:
    v = ("q", "p")
    q, p = (Polynomial.variable(v, n) for n in v)
    model = PolynomialPoissonModel("canonical2d", v, {(0, 1): Polynomial.constant(v, 1)})
    return CoordModelBundle(
        model=model,
        hamiltonian=Fraction(1, 2) * (q * q + p * p),
        flow_start=(1, 0),
    )


# Each quotient-level coordinate model; neither carries eta.
MODELS = {"compartmental": _build_compartmental, "canonical2d": _build_canonical2d}
MODEL_NAMES = tuple(GROUP_MODELS) + tuple(MODELS)


def build_model(name: str, eta=1) -> CoordModelBundle:
    """The coordinate model ``name``; a group model on its structure at eta,
    or at its own fixed eta."""
    if name in GROUP_MODELS:
        row = GROUP_MODELS[name]
        return model_on(name, bialgebra(row.structure, eta if row.eta is None else row.eta))
    if name not in MODELS:
        raise KeyError(f"unknown coordinate model {name!r}")
    return MODELS[name]()


# ---------------------------------------------------------------------------
# dynamics cases for the command line
# ---------------------------------------------------------------------------

DYNAMICS_CASES = {
    "compartmental": {"model": "compartmental"},
    "sphere-morse": {"model": "su2", "morse": True},
    "canonical2d": {"model": "canonical2d"},
    "toda-n3": {"model": "toda-n3"},
}
