"""Re-verification manifest: every catalog identity, certificate and golden
table, re-checked from scratch.  The command line's ``verify-all`` runs this
and prints one line per check with its anchor into the catalog/golden data.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable

from . import catalog, homspace
from .bialgebra import (
    LieBialgebra,
    cocycle_check,
    delta_from_dual,
    double_jacobi_check,
    dual_constants,
)
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


def _random_form(L, degree, rng, dual=True):
    terms = {}
    from itertools import combinations

    pool = list(combinations(range(L.dim), degree))
    for idx in pool:
        if rng.random() < 0.6:
            terms[idx] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return ExteriorElement(L, degree, terms, dual)


def run_all(eta=1, seed: int = catalog.DEFAULT_SEED) -> list[CheckResult]:
    eta = frac(eta)
    rng = random.Random(seed)
    results: list[CheckResult] = []

    def check(name: str, anchor: str, fn: Callable[[], bool]):
        try:
            ok = bool(fn())
            detail = ""
        except Exception as exc:  # a raising check is a failing check
            ok = False
            detail = f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, anchor, ok, detail))

    # --- algebra axioms and closedness of the modular character -----------
    algebras = {
        "so3": catalog.so3_algebra(),
        "sl2-boost": catalog.sl2_boost_algebra(),
        "sl2-triangular": catalog.sl2_triangular_algebra(),
        "solvable3": catalog.solvable3_algebra(),
        "r2xr2": catalog.r2xr2_algebra(),
        "sl3": catalog.toda_bialgebra(3, 1).g,
    }
    for name, L in algebras.items():
        check(f"jacobi:{name}", f"catalog:{name}", lambda L=L: L.jacobi_check() is None)
        check(
            f"modular-character-closed:{name}",
            f"catalog:{name}",
            lambda L=L: is_closed_one_form(L, L.modular_character()),
        )
        check(
            f"differential-squares-to-zero:{name}",
            f"catalog:{name}",
            lambda L=L: all(
                ce_differential(L, ce_differential(L, _random_form(L, d, rng))).is_zero()
                for d in range(0, min(L.dim, 3) + 1)
                for _ in range(5)
            ),
        )

    # --- bialgebras --------------------------------------------------------
    bialgebras: dict[str, LieBialgebra] = {
        "so3-structure": catalog.so3_bialgebra(eta),
        "sl2-hyperbolic": catalog.sl2_bialgebra("hyperbolic", "boost", eta),
        "sl2-elliptic": catalog.sl2_bialgebra("elliptic", "boost", eta),
        "sl2-parabolic": catalog.sl2_bialgebra("parabolic", "boost", eta),
        "sl2-hyperbolic-tri": catalog.sl2_bialgebra("hyperbolic", "triangular", eta),
        "sl2-elliptic-tri": catalog.sl2_bialgebra("elliptic", "triangular", eta),
        "sl2-parabolic-tri": catalog.sl2_bialgebra("parabolic", "triangular", eta),
        "solvable3-structure": catalog.solvable3_bialgebra(),
        "r2xr2-structure": catalog.r2xr2_bialgebra(),
        "sl3-standard-structure": catalog.toda_bialgebra(3, eta),
    }
    for name, B in bialgebras.items():
        check(
            f"dual-jacobi:{name}", f"catalog:{name}", lambda B=B: B.dual.jacobi_check() is None
        )
        check(
            f"cocycle:{name}",
            f"catalog:{name}",
            lambda B=B: cocycle_check(B.g, B.delta) is None,
        )
        check(
            f"double-jacobi:{name}",
            f"catalog:{name}",
            lambda B=B: double_jacobi_check(B) is None,
        )
        check(
            f"delta-roundtrip:{name}",
            f"catalog:{name}",
            lambda B=B: delta_from_dual(B.g, dual_constants(B.delta)) == B.delta,
        )

    expected_yb = {
        "so3-structure": "mcybe",
        "sl2-hyperbolic": "mcybe",
        "sl2-elliptic": "mcybe",
        "sl2-parabolic": "cybe",
        "sl2-hyperbolic-tri": "mcybe",
        "sl2-elliptic-tri": "mcybe",
        "sl2-parabolic-tri": "cybe",
    }
    for name, kind in expected_yb.items():
        check(
            f"yang-baxter-class:{name}",
            f"catalog:{name}",
            lambda name=name, kind=kind: bialgebras[name].yang_baxter == kind,
        )

    # --- dual modular characters at several eta ----------------------------
    def char_of(builder, expect_index, expect_coeff):
        def inner():
            for ev in (Fraction(1), Fraction(2), Fraction(1, 3)):
                chi = builder(ev).dual_modular_character()
                want = [Fraction(0)] * len(chi.coords)
                want[expect_index] = expect_coeff * ev
                if list(chi.coords) != want:
                    return False
            return True

        return inner

    check(
        "dual-character:so3",
        "catalog:so3-structure",
        char_of(lambda ev: catalog.so3_bialgebra(ev), 2, Fraction(-2)),
    )
    check(
        "dual-character:sl2-hyperbolic",
        "catalog:sl2-hyperbolic",
        char_of(lambda ev: catalog.sl2_bialgebra("hyperbolic", "boost", ev), 2, Fraction(-4)),
    )
    check(
        "dual-character:sl2-elliptic",
        "catalog:sl2-elliptic",
        char_of(lambda ev: catalog.sl2_bialgebra("elliptic", "boost", ev), 0, Fraction(-4)),
    )
    check(
        "dual-character:sl2-parabolic",
        "catalog:sl2-parabolic",
        char_of(lambda ev: catalog.sl2_bialgebra("parabolic", "triangular", ev), 1, Fraction(-2)),
    )

    # --- golden tables ------------------------------------------------------
    golden = load_golden()

    def rows_match(names, section):
        want = golden[section]

        def inner():
            rows = {n: homspace.classification_row(catalog.build_homspace(n, eta)) for n in names}
            return not any(golden_mismatch(rows[n], want[n]) for n in names)

        return inner

    check("table:sphere-quotients", "golden:table1", rows_match(catalog.TABLE1_NAMES, "table1"))
    check("table:sl2-quotients", "golden:table2", rows_match(catalog.TABLE2_NAMES, "table2"))
    check(
        "table:extra-quotients",
        "golden:extras",
        rows_match(
            ("mu-plane", "full-group", "compartmental-quotient", "toda-n3"), "extras"
        ),
    )
    check(
        "table:eta-genericity",
        "golden:table1",
        lambda: all(
            homspace.classification_row(catalog.build_homspace(n, Fraction(2)))["mu_status"]
            == golden_rows(golden)[n]["mu_status"]
            for n in catalog.TABLE1_NAMES + catalog.TABLE2_NAMES
        ),
    )

    # --- homogeneous-space structural invariants ---------------------------
    for name in catalog.HOMSPACE_NAMES:
        S = catalog.build_homspace(name, eta)
        check(
            f"lemma-restriction:{name}",
            f"catalog:{name}",
            lambda S=S: _lemma_restriction_holds(S),
        )
        check(f"lu-crosscheck:{name}", f"catalog:{name}", lambda S=S: homspace.lu_crosscheck(S))

    # --- coordinate models --------------------------------------------------
    model_names = ("su2", "sl2-hyperbolic", "sl2-elliptic", "sl2-parabolic")
    for name in model_names:
        bundle = catalog.build_model(name, eta)
        check(
            f"kernel-certificate:{name}",
            f"certificate:{name}",
            lambda b=bundle: kernel_obstruction_verify(
                b.model,
                b.kernel_covector,
                b.horizontal_field(),
                b.kernel_witness,
                rng=random.Random(seed),
            ).witness_value
            != 0,
        )
        check(
            f"multiplicativity:{name}",
            f"model:{name}",
            lambda b=bundle: multiplicativity_spotcheck(
                b.model, pairs=25, rng=random.Random(seed)
            )
            == 0.0,
        )
        check(
            f"jacobi-on-variety:{name}",
            f"model:{name}",
            lambda b=bundle: jacobi_symbolic(
                b.model, rng=random.Random(seed), points=40
            ).ok,
        )
    for name in model_names + ("toda-n3", "compartmental"):
        bundle = catalog.build_model(name, eta)
        check(
            f"linearization:{name}",
            f"model:{name}",
            lambda b=bundle: linearization_vs_cocommutator(
                b.model, b.delta_images, b.frame, b.cocommutator_sign
            )
            < 1e-6,
        )

    su2 = catalog.build_model("su2", eta)
    check(
        "morse-hessian:sphere",
        "model:su2",
        lambda: hessian_at(su2.model, su2.hamiltonian, (1, 0, 0, 0), su2.morse_frame)
        == [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]],
    )
    check(
        "morse-basic:sphere",
        "model:su2",
        lambda: basic_function_check(su2.model, su2.hamiltonian, su2.vertical_fields),
    )
    check(
        "preservation:sphere-morse",
        "model:su2",
        lambda: preservation_residual(
            su2.model,
            su2.hamiltonian,
            su2.model.constant(0),
            su2.model.constant(0),
            su2.left_chi,
            su2.right_chi,
        ).is_zero(),
    )
    ell = catalog.build_model("sl2-elliptic", eta)
    check(
        "preservation:h2-energy",
        "model:sl2-elliptic",
        lambda: preservation_residual(
            ell.model,
            ell.hamiltonian,
            ell.model.constant(0),
            ell.model.constant(0),
            ell.left_chi,
            ell.right_chi,
        ).is_zero()
        and basic_function_check(ell.model, ell.hamiltonian, ell.vertical_fields),
    )

    toda = catalog.build_model("toda-n3")
    check(
        "toda:singular-points",
        "model:toda-n3",
        lambda: all(
            all(v == 0 for v in hamiltonian_vf(toda.model, toda.hamiltonian).eval(
                catalog.toda_singular_point(a)
            ))
            for a in (Fraction(2), Fraction(3), Fraction(1, 2))
        ),
    )
    check(
        "toda:horizontal-values",
        "model:toda-n3",
        lambda: all(
            toda.horizontal_field()(toda.hamiltonian).eval(catalog.toda_singular_point(a))
            == -(4 / a**2) * (a**2 + 1) * (a + 1) * (a - 1)
            for a in (Fraction(2), Fraction(3), Fraction(1, 2))
        ),
    )
    check(
        "toda:no-preserved-volume",
        "model:toda-n3",
        lambda: not preservation_residual(
            toda.model,
            toda.hamiltonian,
            toda.model.constant(0),
            toda.model.constant(0),
            toda.left_chi,
            toda.right_chi,
        ).is_zero(),
    )

    comp = catalog.build_model("compartmental")
    check(
        "compartmental:ode",
        "model:compartmental",
        lambda: [repr(c) for c in hamiltonian_vf(comp.model, comp.hamiltonian).components]
        == ["-x1 + 1", "x1 - x3 - 1", "x3"],
    )
    check(
        "compartmental:divergence-free",
        "model:compartmental",
        lambda: divergence(
            comp.model, hamiltonian_vf(comp.model, comp.hamiltonian)
        ).is_zero(),
    )
    check(
        "compartmental:jacobi",
        "model:compartmental",
        lambda: jacobi_symbolic(comp.model).ok,
    )

    # --- schouten and spec-file sanity --------------------------------------
    so3b = bialgebras["so3-structure"]
    r = ExteriorElement(so3b.g, 2, {(0, 1): eta}, False)
    check(
        "schouten:quadratic-scaling",
        "catalog:so3-structure",
        lambda: schouten_square(so3b.g, 3 * r) == 9 * schouten_square(so3b.g, r),
    )

    def roundtrip():
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

    check("specfile:round-trip", "io:spec-format", roundtrip)

    return results


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
