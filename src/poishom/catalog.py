"""Built-in catalog: the rotation and special-linear group structures, their
homogeneous quotients, and the coordinate Poisson models used by the dynamics
commands.

Every entry is built from an r-matrix or an explicit cocommutator and is
re-validated on construction (dual Jacobi, cocycle condition).  The scaling
parameter ``eta`` is instantiated as an exact rational (default 1); all
catalog verdicts are generic in eta != 0.

Calibration metadata: for the group-level coordinate models the displayed
bracket realizes the opposite orientation of the coboundary cocommutator
(equivalently, the model integrates -r); this is recorded per model as
``cocommutator_sign = -1`` and consumed by the linearization spot check.
The quotient-level compartmental model carries sign +1.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

from .bialgebra import (
    CocommutatorMap,
    LieBialgebra,
    sln_basis_matrices,
    sln_standard_bialgebra,
)
from .coord import PolynomialPoissonModel, PolyVectorField
from .exterior import ExteriorElement
from .homspace import HomogeneousSpaceSpec
from .lie import LieAlgebra
from .linalg import frac
from .poly import Polynomial

DEFAULT_SEED = 20250810


# ---------------------------------------------------------------------------
# Lie algebras
# ---------------------------------------------------------------------------


def so3_algebra() -> LieAlgebra:
    # [J1,J2] = J3, [J2,J3] = J1, [J3,J1] = J2
    return LieAlgebra(
        ("J1", "J2", "J3"),
        {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
    )


def sl2_boost_algebra() -> LieAlgebra:
    """sl(2, R) on the (P1, P2, J12) basis:
    [P1,J12] = -P2, [P2,J12] = -P1, [P1,P2] = J12."""
    return LieAlgebra(
        ("P1", "P2", "J12"),
        {(0, 2): {1: -1}, (1, 2): {0: -1}, (0, 1): {2: 1}},
    )


def sl2_triangular_algebra() -> LieAlgebra:
    """sl(2, R) on the (J3, J+, J-) basis:
    [J3,J+] = 2J+, [J3,J-] = -2J-, [J+,J-] = J3."""
    return LieAlgebra(
        ("J3", "J+", "J-"),
        {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
    )


def solvable3_algebra() -> LieAlgebra:
    """Three-dimensional solvable algebra with [X1,X3] = X2, [X2,X3] = -X2."""
    return LieAlgebra(
        ("X1", "X2", "X3"),
        {(0, 2): {1: 1}, (1, 2): {1: -1}},
    )


def r2xr2_algebra() -> LieAlgebra:
    """R^2 x r_2: four-dimensional with the only bracket [X3,X4] = -X3."""
    return LieAlgebra(
        ("X1", "X2", "X3", "X4"),
        {(2, 3): {2: -1}},
    )


# ---------------------------------------------------------------------------
# bialgebras (eta-parametrized)
# ---------------------------------------------------------------------------


def _rmatrix(L: LieAlgebra, terms: dict, eta) -> ExteriorElement:
    eta = frac(eta)
    return ExteriorElement(L, 2, {k: eta * frac(c) for k, c in terms.items()}, False)


def so3_bialgebra(eta=1) -> LieBialgebra:
    L = so3_algebra()
    return LieBialgebra.from_rmatrix(L, _rmatrix(L, {(0, 1): 1}, eta))  # eta J1^J2


def sl2_bialgebra(structure: str, basis: str, eta=1) -> LieBialgebra:
    """The three coboundary structures in either basis.

    boost basis r-matrices:  hyperbolic 2 eta P1^P2, elliptic 2 eta J12^P2,
    parabolic eta J12^(P1+P2); triangular basis: eta J+^J-,
    eta J3^(J+ + J-), eta/2 J3^J+.  The two presentations of the same named
    structure are separate catalog objects (each self-consistent; they are
    identified only up to rescaling eta).
    """
    if basis == "boost":
        L = sl2_boost_algebra()
        terms = {
            "hyperbolic": {(0, 1): 2},            # 2 eta P1 ^ P2
            "elliptic": {(1, 2): -2},             # 2 eta J12 ^ P2 = -2 eta P2 ^ J12
            "parabolic": {(0, 2): -1, (1, 2): -1},  # eta J12 ^ (P1+P2)
        }[structure]
    elif basis == "triangular":
        L = sl2_triangular_algebra()
        terms = {
            "hyperbolic": {(1, 2): 1},                       # eta J+ ^ J-
            "elliptic": {(0, 1): 1, (0, 2): 1},              # eta J3 ^ (J+ + J-)
            "parabolic": {(0, 1): Fraction(1, 2)},           # eta/2 J3 ^ J+
        }[structure]
    else:
        raise ValueError(f"unknown basis {basis!r}")
    return LieBialgebra.from_rmatrix(L, _rmatrix(L, terms, eta))


def solvable3_bialgebra() -> LieBialgebra:
    """delta(X3) = X1 ^ X2 on the 3-dimensional solvable algebra (dual is the
    Heisenberg algebra)."""
    L = solvable3_algebra()
    delta = CocommutatorMap.from_images(L, {2: {(0, 1): 1}})
    return LieBialgebra(L, delta)


def r2xr2_bialgebra() -> LieBialgebra:
    """delta(X1) = X1 ^ X2, delta(X3) = X2 ^ X3 on R^2 x r_2."""
    L = r2xr2_algebra()
    delta = CocommutatorMap.from_images(L, {0: {(0, 1): 1}, 2: {(1, 2): 1}})
    return LieBialgebra(L, delta)


def toda_bialgebra(n: int = 3, eta=1) -> LieBialgebra:
    return sln_standard_bialgebra(n, eta)


# ---------------------------------------------------------------------------
# homogeneous-space specs
# ---------------------------------------------------------------------------


def _spec(name: str, B: LieBialgebra, h_labels: Sequence[str]) -> HomogeneousSpaceSpec:
    return HomogeneousSpaceSpec(name=name, bialgebra=B, h=B.g.subalgebra(list(h_labels)))


def build_homspace(name: str, eta=1) -> HomogeneousSpaceSpec:
    eta = frac(eta)
    if name == "subgroup-sphere":
        return _spec(name, so3_bialgebra(eta), ["J3"])
    if name == "coisotropic-sphere":
        return _spec(name, so3_bialgebra(eta), ["J1"])
    if name.startswith(("ads2-", "h2-", "lightcone-")):
        quotient, structure = name.split("-", 1)
        if structure not in ("hyperbolic", "elliptic", "parabolic"):
            raise KeyError(f"unknown catalog entry {name!r}")
        if quotient == "lightcone":
            B = sl2_bialgebra(structure, "triangular", eta)
            return _spec(name, B, ["J+"])
        B = sl2_bialgebra(structure, "boost", eta)
        return _spec(name, B, ["J12"] if quotient == "ads2" else ["P1"])
    if name == "mu-plane":
        return _spec(name, solvable3_bialgebra(), ["X1"])
    if name == "full-group":
        B = solvable3_bialgebra()
        return HomogeneousSpaceSpec(name=name, bialgebra=B, h=B.g.subalgebra([]))
    if name == "compartmental-quotient":
        return _spec(name, r2xr2_bialgebra(), ["X4"])
    if name == "toda-n3":
        B = toda_bialgebra(3, eta)
        return _spec(name, B, ["Q12", "Q13", "Q23"])
    raise KeyError(f"unknown catalog entry {name!r}")


TABLE1_NAMES = ("subgroup-sphere", "coisotropic-sphere")
TABLE2_NAMES = tuple(
    f"{q}-{s}"
    for s in ("hyperbolic", "elliptic", "parabolic")
    for q in ("ads2", "h2", "lightcone")
)
HOMSPACE_NAMES = (
    TABLE1_NAMES
    + TABLE2_NAMES
    + ("mu-plane", "full-group", "compartmental-quotient", "toda-n3")
)


# ---------------------------------------------------------------------------
# coordinate models
# ---------------------------------------------------------------------------


class CoordModelBundle:
    """A coordinate model plus its transcribed invariant-field data."""

    def __init__(
        self,
        model: PolynomialPoissonModel,
        left_chi: Optional[PolyVectorField] = None,
        right_chi: Optional[PolyVectorField] = None,
        chi_g_form=None,
        vertical_fields: Sequence[PolyVectorField] = (),
        morse_frame: Sequence[PolyVectorField] = (),
        frame: Sequence[Sequence] = (),
        delta_images: Sequence[dict] = (),
        cocommutator_sign: int = -1,
        kernel_covector: Optional[Sequence[Polynomial]] = None,
        kernel_witness: Optional[Sequence] = None,
        hamiltonian: Optional[Polynomial] = None,
        flow_start: Optional[Sequence] = None,
        notes: str = "",
    ):
        self.model = model
        self.left_chi = left_chi
        self.right_chi = right_chi
        self.chi_g_form = chi_g_form
        self.vertical_fields = tuple(vertical_fields)
        self.morse_frame = tuple(morse_frame)
        self.frame = tuple(tuple(frac(c) for c in f) for f in frame)
        self.delta_images = tuple(delta_images)
        self.cocommutator_sign = cocommutator_sign
        self.kernel_covector = tuple(kernel_covector) if kernel_covector else None
        self.kernel_witness = tuple(frac(c) for c in kernel_witness) if kernel_witness else None
        self.hamiltonian = hamiltonian
        self.flow_start = tuple(frac(c) for c in flow_start) if flow_start else None
        self.notes = notes

    def horizontal_field(self) -> PolyVectorField:
        from .coord import field_from_character_data

        return field_from_character_data(
            self.model, self.left_chi, self.right_chi, self.chi_g_form
        )


def _field(variables, comps) -> PolyVectorField:
    return PolyVectorField(variables, list(comps))


def _sphere_sampler(rng: random.Random):
    u = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    v = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    w = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    s = u * u + v * v + w * w
    d = 1 + s
    return ((1 - s) / d, 2 * u / d, 2 * v / d, 2 * w / d)


def _sl2_sampler(rng: random.Random):
    while True:
        x = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if x:
            break
    y = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    z = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    return (x, y, z, (1 + y * z) / x)


def _sl3_sampler(rng: random.Random):
    def small():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def small_nonzero():
        while True:
            c = small()
            if c:
                return c

    d1, d2 = small_nonzero(), small_nonzero()
    l21, l31, l32 = small(), small(), small()
    u12, u13, u23 = small(), small(), small()
    d3 = 1 / (d1 * d2)
    # lower @ diag(d1, d2, d3) @ upper, expanded over the zero entries of the
    # unit triangular factors
    a, b = l21 * d1, l31 * d1
    c = l32 * d2
    return (
        d1, d1 * u12, d1 * u13,
        a, a * u12 + d2, a * u13 + d2 * u23,
        b, b * u12 + c, b * u13 + c * u23 + d3,
    )


def _su2_group_mult(variables) -> list[Polynomial]:
    names = list(variables) + [f"{v}'" for v in variables]
    g = {v: Polynomial.variable(names, v) for v in names}
    x, y, z, t = (g[v] for v in variables)
    xp, yp, zp, tp = (g[f"{v}'"] for v in variables)
    return [
        x * xp - y * yp - z * zp - t * tp,
        x * yp + y * xp + t * zp - z * tp,
        x * zp + z * xp - t * yp + y * tp,
        t * xp + x * tp + z * yp - y * zp,
    ]


def _matrix_group_mult(variables, n) -> list[Polynomial]:
    """Entries of the product of two n x n matrices, each given row by row by
    ``variables``, the second one primed."""
    names = list(variables) + [f"{v}'" for v in variables]
    g = [Polynomial.variable(names, v) for v in names]
    return [
        sum((g[i * n + k] * g[n * n + k * n + j] for k in range(n)), Polynomial.zero(names))
        for i in range(n)
        for j in range(n)
    ]


def _build_su2(eta: Fraction) -> CoordModelBundle:
    v = ("x", "y", "z", "t")
    X = {n: Polynomial.variable(v, n) for n in v}
    x, y, z, t = X["x"], X["y"], X["z"], X["t"]
    half = eta / 2
    brackets = {
        (0, 1): half * (z * z + t * t),
        (0, 2): -half * y * z,
        (0, 3): -half * y * t,
        (1, 2): half * x * z,
        (1, 3): half * x * t,
    }
    constraint = x * x + y * y + z * z + t * t - 1
    model = PolynomialPoissonModel(
        "su2",
        v,
        brackets,
        constraints=[constraint],
        base_point=(1, 0, 0, 0),
        poisson_lie=True,
        group_mult=_su2_group_mult(v),
        sampler=_sphere_sampler,
    )
    left = _field(v, [eta * y, -eta * x, eta * t, -eta * z])
    right = _field(v, [eta * y, -eta * x, -eta * t, eta * z])
    zero = Polynomial.zero(v)
    half_f = Fraction(1, 2)
    vertical = _field(v, [-half_f * y, half_f * x, -half_f * t, half_f * z])  # left J3
    morse_frame = (
        _field(v, [-half_f * t, -half_f * z, half_f * y, half_f * x]),  # left J1
        _field(v, [-half_f * z, half_f * t, half_f * x, -half_f * y]),  # left J2
    )
    return CoordModelBundle(
        model=model,
        left_chi=left,
        right_chi=right,
        vertical_fields=[vertical],
        morse_frame=morse_frame,
        frame=[(0, 0, 0, half_f), (0, 0, half_f, 0), (0, half_f, 0, 0)],
        delta_images=[{(0, 2): eta}, {(1, 2): eta}, {}],
        cocommutator_sign=-1,
        kernel_covector=[zero, zero, -t, z],
        kernel_witness=(0, 0, 1, 0),
        hamiltonian=(x * x + y * y) * (z * z + t * t),
        flow_start=(Fraction(2, 3), Fraction(1, 3), Fraction(2, 3), 0),
        notes="coordinate bracket realizes the opposite r-matrix orientation",
    )


def _build_sl2(structure: str, eta: Fraction) -> CoordModelBundle:
    v = ("x", "y", "z", "t")
    X = {n: Polynomial.variable(v, n) for n in v}
    x, y, z, t = X["x"], X["y"], X["z"], X["t"]
    zero = Polynomial.zero(v)
    half = eta / 2
    if structure == "hyperbolic":
        brackets = {
            (0, 1): eta * x * y,
            (0, 2): eta * x * z,
            (0, 3): 2 * eta * y * z,
            (1, 3): eta * y * t,
            (2, 3): eta * z * t,
        }
        left = _field(v, [-2 * eta * x, 2 * eta * y, -2 * eta * z, 2 * eta * t])
        right = _field(v, [-2 * eta * x, -2 * eta * y, 2 * eta * z, 2 * eta * t])
        kernel = [zero, z, -y, zero]
        witness = (1, 1, 1, 2)
        frame = [(1, 0, 0, -1), (0, 1, 0, 0), (0, 0, 1, 0)]  # J3, J+, J-
        delta_images = [{}, {(0, 1): -eta}, {(0, 2): -eta}]
    elif structure == "elliptic":
        brackets = {
            (0, 1): half * (x * (t - x) - y * (y + z)),
            (0, 2): half * (x * (x - t) + z * (y + z)),
            (0, 3): half * (x - t) * (y - z),
            (1, 2): half * (x + t) * (y + z),
            (1, 3): half * (-t * (x - t) + y * (y + z)),
            (2, 3): half * (t * (x - t) - z * (y + z)),
        }
        left = _field(v, [2 * eta * y, -2 * eta * x, 2 * eta * t, -2 * eta * z])
        right = _field(v, [-2 * eta * z, -2 * eta * t, 2 * eta * x, 2 * eta * y])
        kernel = [-(y + z), x - t, x - t, y + z]
        witness = (2, 1, 1, 1)
        frame = [  # P1, P2, J12 realized as (E12-E21)/2, (E12+E21)/2, diag(1,-1)/2
            (0, Fraction(1, 2), -Fraction(1, 2), 0),
            (0, Fraction(1, 2), Fraction(1, 2), 0),
            (Fraction(1, 2), 0, 0, -Fraction(1, 2)),
        ]
        delta_images = [{}, {(0, 1): -2 * eta}, {(0, 2): -2 * eta}]
    elif structure == "parabolic":
        brackets = {
            (0, 1): half * (-x * (x - t) - y * z),
            (0, 2): half * z * z,
            (0, 3): -half * (x - t) * z,
            (1, 2): half * (x + t) * z,
            (1, 3): half * (-t * (x - t) + y * z),
            (2, 3): -half * z * z,
        }
        left = _field(v, [zero, -2 * eta * x, zero, -2 * eta * z])
        right = _field(v, [-2 * eta * z, -2 * eta * t, zero, zero])
        kernel = [-z, zero, x - t, z]
        witness = (0, -1, 1, 0)
        frame = [(1, 0, 0, -1), (0, 1, 0, 0), (0, 0, 1, 0)]  # J3, J+, J-
        delta_images = [{(0, 1): eta}, {}, {(1, 2): -eta}]
    else:
        raise KeyError(structure)
    model = PolynomialPoissonModel(
        f"sl2-{structure}",
        v,
        brackets,
        constraints=[x * t - y * z - 1],
        base_point=(1, 0, 0, 1),
        poisson_lie=True,
        group_mult=_matrix_group_mult(v, 2),
        sampler=_sl2_sampler,
    )
    # left P1 with P1 = (E12 - E21)/2; kills the two-sheeted-quotient energy
    vertical_p1 = _field(
        v,
        [
            -Fraction(1, 2) * y,
            Fraction(1, 2) * x,
            -Fraction(1, 2) * t,
            Fraction(1, 2) * z,
        ],
    )
    return CoordModelBundle(
        model=model,
        left_chi=left,
        right_chi=right,
        vertical_fields=[vertical_p1],
        frame=frame,
        delta_images=delta_images,
        cocommutator_sign=-1,
        kernel_covector=kernel,
        kernel_witness=witness,
        hamiltonian=Fraction(1, 2) * (x * x + y * y + z * z + t * t),
        notes="coordinate bracket realizes the opposite r-matrix orientation",
    )


def _build_toda3() -> CoordModelBundle:
    v = tuple(f"a{i}{j}" for i in range(1, 4) for j in range(1, 4))
    X = {n: Polynomial.variable(v, n) for n in v}

    def a(i, j):
        return X[f"a{i}{j}"]

    def sgn(d):
        return (d > 0) - (d < 0)

    brackets = {}
    idx = {(i, j): 3 * (i - 1) + (j - 1) for i in range(1, 4) for j in range(1, 4)}
    for (i, j), p in idx.items():
        for (k, l), q in idx.items():
            if p >= q:
                continue
            coeff = sgn(k - i) + sgn(l - j)
            if coeff:
                brackets[(p, q)] = coeff * a(i, l) * a(k, j)
    det = (
        a(1, 1) * (a(2, 2) * a(3, 3) - a(2, 3) * a(3, 2))
        - a(1, 2) * (a(2, 1) * a(3, 3) - a(2, 3) * a(3, 1))
        + a(1, 3) * (a(2, 1) * a(3, 2) - a(2, 2) * a(3, 1))
    )
    model = PolynomialPoissonModel(
        "toda-n3",
        v,
        brackets,
        constraints=[det - 1],
        base_point=(1, 0, 0, 0, 1, 0, 0, 0, 1),
        poisson_lie=True,
        group_mult=_matrix_group_mult(v, 3),
        sampler=_sl3_sampler,
    )
    zero = Polynomial.zero(v)
    left_comps = [zero] * 9
    right_comps = [zero] * 9
    for i in range(1, 4):
        left_comps[idx[(i, 1)]] = -4 * a(i, 1)
        left_comps[idx[(i, 3)]] = 4 * a(i, 3)
        right_comps[idx[(1, i)]] = -4 * a(1, i)
        right_comps[idx[(3, i)]] = 4 * a(3, i)
    labels, mats = sln_basis_matrices(3)
    frame = [tuple(m[i][j] for i in range(3) for j in range(3)) for m in mats]
    B = toda_bialgebra(3, 1)
    delta_images = [dict(im.terms) for im in B.delta.images]
    ham = Polynomial.zero(v)
    for n in v:
        ham = ham + X[n] * X[n]
    return CoordModelBundle(
        model=model,
        left_chi=_field(v, left_comps),
        right_chi=_field(v, right_comps),
        frame=frame,
        delta_images=delta_images,
        cocommutator_sign=-1,
        hamiltonian=ham,
        notes="fixed at eta = 1; vanishing-corner typo in the displayed "
        "horizontal field corrected by assembling (right - left)/2",
    )


def toda_singular_point(a) -> tuple[Fraction, ...]:
    a = frac(a)
    return (0, a, 0, -1 / a, 0, 0, 0, 0, 1)


def _build_compartmental() -> CoordModelBundle:
    v = ("x1", "x2", "x3")
    X = {n: Polynomial.variable(v, n) for n in v}
    x1, x2, x3 = X["x1"], X["x2"], X["x3"]
    model = PolynomialPoissonModel(
        "compartmental",
        v,
        {(0, 1): x1 - 1, (1, 2): x3},
        base_point=(1, 0, 0),
        poisson_lie=True,
    )
    return CoordModelBundle(
        model=model,
        frame=[(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        delta_images=[{(0, 1): 1}, {}, {(1, 2): 1}],
        cocommutator_sign=1,
        hamiltonian=x1 + x2 + x3,
        flow_start=(1, 1, 1),
        notes="coordinates shifted so the base point sits at (1, 0, 0)",
    )


def _build_canonical2d() -> CoordModelBundle:
    v = ("q", "p")
    q = Polynomial.variable(v, "q")
    p = Polynomial.variable(v, "p")
    model = PolynomialPoissonModel(
        "canonical2d", v, {(0, 1): Polynomial.constant(v, 1)}
    )
    return CoordModelBundle(
        model=model,
        hamiltonian=Fraction(1, 2) * (q * q + p * p),
        flow_start=(1, 0),
    )


MODEL_NAMES = (
    "su2",
    "sl2-hyperbolic",
    "sl2-elliptic",
    "sl2-parabolic",
    "toda-n3",
    "compartmental",
    "canonical2d",
)


def build_model(name: str, eta=1) -> CoordModelBundle:
    eta = frac(eta)
    if name == "su2":
        return _build_su2(eta)
    if name.startswith("sl2-"):
        return _build_sl2(name[4:], eta)
    if name == "toda-n3":
        return _build_toda3()
    if name == "compartmental":
        return _build_compartmental()
    if name == "canonical2d":
        return _build_canonical2d()
    raise KeyError(f"unknown coordinate model {name!r}")


# ---------------------------------------------------------------------------
# dynamics cases for the command line
# ---------------------------------------------------------------------------

DYNAMICS_CASES = {
    "compartmental": {"model": "compartmental"},
    "sphere-morse": {"model": "su2", "morse": True},
    "canonical2d": {"model": "canonical2d"},
    "toda-n3": {"model": "toda-n3"},
}
