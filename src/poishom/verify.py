"""Re-verification manifest: every catalog identity, certificate and golden
table, re-checked from scratch.  The command line's ``verify-all`` runs this
and prints one line per check with its anchor into the catalog/golden data.

``run_all`` is one loop over the ``(name, anchor, thunk)`` rows of
``_checks``, which builds each structure of ``catalog.STRUCTURES``, each
homogeneous space of ``catalog.HOMSPACES`` (on those same bialgebras, so one
double serves the double-Jacobi and Lu cross-checks of a structure) and each
coordinate model once at eta, a group model on its bialgebra unless it fixes
its own eta.  The algebra checks run on the g of the first structure on
each catalog algebra, in table order.  ``golden_table`` is the one
comparison of recomputed classification rows with the golden data;
``tables`` uses it too.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import combinations

from . import catalog, homspace
from .bialgebra import CocommutatorMap, cocycle_check, double_jacobi_check, dual_constants
from .coord import (
    basic_function_check,
    divergence,
    hamiltonian_vf,
    hessian_at,
    jacobi_symbolic,
    kernel_obstruction_verify,
    linearization_vs_cocommutator,
    multiplicativity_spotcheck,
    preservation_residual,
)
from .exterior import ExteriorElement, ce_differential, schouten_square
from .lie import is_closed_one_form
from .linalg import frac


def load_golden() -> dict:
    with resources.files("poishom.data").joinpath("golden.json").open("r") as fh:
        return json.load(fh)


def golden_mismatch(row: dict, want: dict) -> dict:
    """{key: (got, wanted)} for each key of the golden row ``want`` on which
    ``row`` differs; the golden ``anchors`` are references, not results."""
    return {k: (row.get(k), v) for k, v in want.items() if k != "anchors" and row.get(k) != v}


def golden_rows(golden: dict) -> dict:
    rows = {}
    for section in ("table1", "table2", "extras"):
        rows.update(golden.get(section, {}))
    return rows


@dataclass
class CheckResult:
    name: str
    anchor: str
    ok: bool
    detail: str = ""


def _random_form(L, degree, rng):
    terms = {}
    for idx in combinations(range(L.dim), degree):
        if rng.random() < 0.6:
            terms[idx] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return ExteriorElement(L, degree, terms, dual=True)


def golden_table(golden: dict, section: str, specs) -> tuple[list[dict], list[str]]:
    """The classification rows of the built catalog entries ``specs``, and
    one ``"<name>: <reason>"`` line for each row that is missing from, or
    differs from, the ``section`` of the golden data."""
    want = golden.get(section, {})
    rows, failures = [], []
    for S in specs:
        row = homspace.classification_row(S)
        rows.append(row)
        if S.name not in want:
            failures.append(f"{S.name}: missing from golden data")
        elif diffs := golden_mismatch(row, want[S.name]):
            failures.append(f"{S.name}: {diffs}")
    return rows, failures


def run_all(eta=1, seed: int = catalog.DEFAULT_SEED) -> list[CheckResult]:
    results: list[CheckResult] = []
    for name, anchor, thunk in _checks(frac(eta), seed):
        try:
            ok, detail = bool(thunk()), ""
        except Exception as exc:  # a raising check is a failing check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, anchor, ok, detail))
    return results


# (check, test of a Lie algebra L given the shared rng), run on each algebra
ALGEBRA_CHECKS = (
    ("jacobi", lambda L, rng: L.jacobi_check() is None),
    ("modular-character-closed", lambda L, rng: is_closed_one_form(L, L.modular_character())),
    ("differential-squares-to-zero", lambda L, rng: all(
        ce_differential(L, ce_differential(L, _random_form(L, d, rng))).is_zero()
        for d in range(0, min(L.dim, 3) + 1)
        for _ in range(5)
    )),
)

# (check, test of a bialgebra B), run on each catalog bialgebra
BIALGEBRA_CHECKS = (
    ("dual-jacobi", lambda B: B.dual.jacobi_check() is None),
    ("cocycle", lambda B: cocycle_check(B.g, B.delta) is None),
    ("double-jacobi", lambda B: double_jacobi_check(B) is None),
    ("delta-roundtrip", lambda B: CocommutatorMap(B.g, dual_constants(B.delta)) == B.delta),
)

# (bialgebra, its Yang-Baxter class)
YANG_BAXTER = (
    ("so3-structure", "mcybe"),
    ("sl2-hyperbolic", "mcybe"),
    ("sl2-elliptic", "mcybe"),
    ("sl2-parabolic", "cybe"),
    ("sl2-hyperbolic-tri", "mcybe"),
    ("sl2-elliptic-tri", "mcybe"),
    ("sl2-parabolic-tri", "cybe"),
)

# (check suffix, anchor, bialgebra, index, coefficient): at each eta the dual
# modular character is coefficient * eta times the index-th basis vector
DUAL_CHARACTERS = (
    ("so3", "so3-structure", "so3-structure", 2, -2),
    ("sl2-hyperbolic", "sl2-hyperbolic", "sl2-hyperbolic", 2, -4),
    ("sl2-elliptic", "sl2-elliptic", "sl2-elliptic", 0, -4),
    ("sl2-parabolic", "sl2-parabolic", "sl2-parabolic-tri", 1, -2),
)

# (table check, golden section, catalog entries)
GOLDEN_TABLES = (
    ("sphere-quotients", "table1", catalog.TABLE1_NAMES),
    ("sl2-quotients", "table2", catalog.TABLE2_NAMES),
    ("extra-quotients", "extras", catalog.EXTRA_NAMES),
)

# (check, test of a homogeneous space S), run on each catalog entry
HOMSPACE_CHECKS = (
    ("lemma-restriction", lambda S: _lemma_restriction_holds(S)),
    ("lu-crosscheck", lambda S: homspace.lu_crosscheck(S)),
)

GROUP_MODELS = ("su2", "sl2-hyperbolic", "sl2-elliptic", "sl2-parabolic")
CHECKED_MODELS = GROUP_MODELS + ("toda-n3", "compartmental")

# (check, anchor kind, test of a model bundle b), run on each group model
# with a generator of its own seeded with the manifest seed
GROUP_MODEL_CHECKS = (
    ("kernel-certificate", "certificate", lambda b, rng: kernel_obstruction_verify(
        b.model, b.kernel_covector, b.horizontal_field(), b.kernel_witness, rng=rng
    ).witness_value != 0),
    ("multiplicativity", "model", lambda b, rng: (
        multiplicativity_spotcheck(b.model, pairs=25, rng=rng) == 0.0
    )),
    ("jacobi-on-variety", "model", lambda b, rng: jacobi_symbolic(b.model, rng=rng, points=40).ok),
)

HALF = Fraction(1, 2)
TODA_A = (Fraction(2), Fraction(3), Fraction(1, 2))  # singular points of the Toda flow

# (check, model, test of its bundle b): the identities of single models
MODEL_IDENTITIES = (
    ("morse-hessian:sphere", "su2", lambda b: (
        hessian_at(b.model, b.hamiltonian, (1, 0, 0, 0), b.morse_frame) == [[HALF, 0], [0, HALF]]
    )),
    ("morse-basic:sphere", "su2", lambda b: _basic(b)),
    ("preservation:sphere-morse", "su2", lambda b: _preserved(b)),
    ("preservation:h2-energy", "sl2-elliptic", lambda b: _preserved(b) and _basic(b)),
    ("toda:singular-points", "toda-n3", lambda b: all(
        v == 0
        for a in TODA_A
        for v in hamiltonian_vf(b.model, b.hamiltonian).eval(catalog.toda_singular_point(a))
    )),
    ("toda:horizontal-values", "toda-n3", lambda b: all(
        b.horizontal_field()(b.hamiltonian).eval(catalog.toda_singular_point(a))
        == -(4 / a**2) * (a**2 + 1) * (a + 1) * (a - 1)
        for a in TODA_A
    )),
    ("toda:no-preserved-volume", "toda-n3", lambda b: not _preserved(b)),
    ("compartmental:ode", "compartmental", lambda b: (
        [repr(c) for c in hamiltonian_vf(b.model, b.hamiltonian).components]
        == ["-x1 + 1", "x1 - x3 - 1", "x3"]
    )),
    ("compartmental:divergence-free", "compartmental", lambda b: (
        divergence(b.model, hamiltonian_vf(b.model, b.hamiltonian)).is_zero()
    )),
    ("compartmental:jacobi", "compartmental", lambda b: jacobi_symbolic(b.model).ok),
)


def _checks(eta: Fraction, seed: int):
    """(name, anchor, thunk) for every check, in manifest order.  Each catalog
    bialgebra, homogeneous space and model is built once at eta; the thunks
    that draw from the shared ``rng`` run in the order they are yielded."""
    rng = random.Random(seed)
    bialgebras = {name: catalog.bialgebra(name, eta) for name in catalog.STRUCTURES}
    algebras = {}  # each catalog algebra, as the g of the first structure on it
    for name, (algebra, *_) in catalog.STRUCTURES.items():
        algebras.setdefault(algebra, bialgebras[name].g)
    for name, L in algebras.items():
        for check, test in ALGEBRA_CHECKS:
            yield f"{check}:{name}", f"catalog:{name}", functools.partial(test, L, rng)
    for name, B in bialgebras.items():
        for check, test in BIALGEBRA_CHECKS:
            yield f"{check}:{name}", f"catalog:{name}", functools.partial(test, B)
    for name, kind in YANG_BAXTER:
        B = bialgebras[name]
        yield f"yang-baxter-class:{name}", f"catalog:{name}", lambda B=B, k=kind: B.yang_baxter == k
    for suffix, anchor, structure, index, coeff in DUAL_CHARACTERS:
        test = functools.partial(_dual_character_holds, structure, index, coeff)
        yield f"dual-character:{suffix}", f"catalog:{anchor}", test
    golden = load_golden()
    specs = {n: catalog.homspace_on(n, bialgebras[b]) for n, (b, _) in catalog.HOMSPACES.items()}
    for check, section, names in GOLDEN_TABLES:
        test = functools.partial(golden_table, golden, section, [specs[n] for n in names])
        yield f"table:{check}", f"golden:{section}", lambda t=test: not t()[1]
    yield "table:eta-genericity", "golden:table1", functools.partial(_eta_generic, golden)
    for name in catalog.HOMSPACE_NAMES:
        for check, test in HOMSPACE_CHECKS:
            yield f"{check}:{name}", f"catalog:{name}", functools.partial(test, specs[name])
    models = {
        name: catalog.model_on(name, bialgebras[row.structure])
        if (row := catalog.GROUP_MODELS.get(name)) and row.eta in (None, eta)
        else catalog.build_model(name, eta)
        for name in CHECKED_MODELS
    }
    for name in GROUP_MODELS:
        for check, kind, test in GROUP_MODEL_CHECKS:
            test = functools.partial(test, models[name], random.Random(seed))
            yield f"{check}:{name}", f"{kind}:{name}", test
    for name, b in models.items():
        yield f"linearization:{name}", f"model:{name}", lambda b=b: linearization_vs_cocommutator(
            b.model, b.delta_images, b.frame, b.cocommutator_sign
        ) == 0.0
    for check, name, test in MODEL_IDENTITIES:
        yield check, f"model:{name}", functools.partial(test, models[name])
    so3 = bialgebras["so3-structure"].g
    r = ExteriorElement(so3, 2, {(0, 1): eta}, False)
    yield (
        "schouten:quadratic-scaling",
        "catalog:so3-structure",
        lambda: schouten_square(so3, 3 * r) == 9 * schouten_square(so3, r),
    )
    yield "specfile:round-trip", "io:spec-format", _spec_round_trip


def _dual_character_holds(structure: str, index: int, coeff) -> bool:
    for ev in (Fraction(1), Fraction(2), Fraction(1, 3)):
        coords = catalog.bialgebra(structure, ev).dual_modular_character().coords
        if list(coords) != [coeff * ev if k == index else 0 for k in range(len(coords))]:
            return False
    return True


def _eta_generic(golden: dict) -> bool:
    """The multiplicative-unimodularity verdicts of both tables at eta = 2
    are the golden ones."""
    want = golden_rows(golden)
    return all(
        homspace.classification_row(catalog.build_homspace(n, Fraction(2)))["mu_status"]
        == want[n]["mu_status"]
        for n in catalog.TABLE1_NAMES + catalog.TABLE2_NAMES
    )


def _basic(b) -> bool:
    """b's Hamiltonian is killed by the vertical fields of the quotient."""
    return basic_function_check(b.model, b.hamiltonian, b.vertical_fields)


def _preserved(b) -> bool:
    """The residual of the volume-preservation identity for b's Hamiltonian,
    with both log densities 0, vanishes."""
    zero = b.model.constant(0)
    return preservation_residual(
        b.model, b.hamiltonian, zero, zero, b.left_chi, b.right_chi
    ).is_zero()


def _spec_round_trip() -> bool:
    from .specfile import parse_spec_text, serialize_spec

    text = (
        "[algebra]\n"
        "basis: X1 X2 X3\n"
        "X1,X3 -> 1 X2\n"
        "X2,X3 -> -1 X2\n"
        "\n[delta]\nX3 -> 1 X1^X2\n"
        "\n[subalgebra]\nX1\n"
    )
    doc = parse_spec_text(text)
    return parse_spec_text(serialize_spec(doc)) == doc


def _lemma_restriction_holds(S) -> bool:
    """theta0 built from the top annihilator wedge restricts to
    chi_g|_h - chi_h (the construction also re-checks the wedge identity)."""
    from .exterior import theta0_from_v0

    g = S.bialgebra.g
    v0 = homspace.canonical_v0(S)
    theta = theta0_from_v0(g, S.h, v0)
    chi_g = g.modular_character()
    chi_h = S.h.modular_character_values()
    return all(
        theta(v) == chi_g(v) - ch for v, ch in zip(S.h.basis, chi_h)
    )
