"""Seeded property suites over the whole catalog: differential squares to
zero, wedge laws, Jacobi for algebras / duals / doubles on random vectors,
the two-sided volume-data equivalence, closedness of modular characters under
basis changes, the Lagrangian-character cross-check, and invariance of all
verdicts under recombination of the subalgebra basis.  Each suite draws at
least 200 random instances under a fixed seed.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from poishom import catalog, linalg
from poishom.bialgebra import double_algebra
from poishom.exterior import ExteriorElement, ce_differential
from poishom.homspace import (
    HomogeneousSpaceSpec,
    canonical_v0,
    chi_h0,
    classification_row,
)
from poishom.lie import LieAlgebra, Subalgebra, Vector, is_closed_one_form

SEED = catalog.DEFAULT_SEED


def _algebras():
    return [
        catalog.algebra("so3"),
        catalog.algebra("sl2-boost"),
        catalog.algebra("sl2-triangular"),
        catalog.algebra("solvable3"),
        catalog.algebra("r2xr2"),
        catalog.bialgebra("sl3-standard-structure", 1).g,
    ]


def _rational(rng, num=5, den=3):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _random_form(L, degree, rng, dual=True):
    terms = {}
    for idx in combinations(range(L.dim), degree):
        if rng.random() < 0.5:
            terms[idx] = _rational(rng)
    return ExteriorElement(L, degree, terms, dual)


def _random_vector(L, rng):
    return L.vector([_rational(rng) for _ in range(L.dim)])


def _random_invertible(rng, n):
    while True:
        m = [[_rational(rng) for _ in range(n)] for _ in range(n)]
        if linalg.det(m) != 0:
            return m


def test_differential_squares_to_zero_suite():
    rng = random.Random(SEED)
    count = 0
    algebras = _algebras()
    while count < 200:
        L = algebras[count % len(algebras)]
        degree = rng.randint(0, min(L.dim - 1, 3))
        w = _random_form(L, degree, rng)
        assert ce_differential(L, ce_differential(L, w)).is_zero()
        count += 1
    assert count >= 200


def test_wedge_laws_suite():
    rng = random.Random(SEED + 1)
    algebras = _algebras()
    count = 0
    while count < 200:
        L = algebras[count % len(algebras)]
        p = rng.randint(1, 2)
        q = rng.randint(1, 2)
        r = rng.randint(1, 2)
        a = _random_form(L, p, rng)
        b = _random_form(L, q, rng)
        c = _random_form(L, r, rng)
        sign = (-1) ** (p * q)
        assert a.wedge(b) == sign * b.wedge(a)
        assert a.wedge(b.wedge(c)) == (a.wedge(b)).wedge(c)
        count += 1


def test_jacobi_on_random_vectors_suite():
    """Jacobi for every catalog algebra, its dual, and its double, evaluated
    on random vectors rather than only on basis triples."""
    rng = random.Random(SEED + 2)
    spaces = []
    for B in (
        catalog.bialgebra("so3-structure", 1),
        catalog.bialgebra("sl2-hyperbolic", 1),
        catalog.bialgebra("sl2-elliptic", 1),
        catalog.bialgebra("sl2-parabolic-tri", 1),
        catalog.bialgebra("solvable3-structure"),
        catalog.bialgebra("r2xr2-structure"),
        catalog.bialgebra("sl3-standard-structure", 1),
    ):
        spaces.extend([B.g, B.dual, double_algebra(B)])
    for L in spaces:
        assert L.jacobi_check() is None
    count = 0
    while count < 210:
        L = spaces[count % len(spaces)]
        u, v, w = (_random_vector(L, rng) for _ in range(3))
        jac = (
            L.bracket(L.bracket(u, v), w)
            + L.bracket(L.bracket(v, w), u)
            + L.bracket(L.bracket(w, u), v)
        )
        assert jac.is_zero()
        count += 1


def test_volume_data_equivalence_suite():
    """theta0 satisfies d V0 = -theta0 ^ V0 for the top annihilator element
    exactly when theta0|_h = chi_g|_h - chi_h; checked in both directions on
    random covectors (raw, and projected onto the solution set)."""
    rng = random.Random(SEED + 3)
    specs = [catalog.build_homspace(n) for n in catalog.HOMSPACE_NAMES]
    prepared = []
    for S in specs:
        g = S.bialgebra.g
        v0 = canonical_v0(S)
        dv0 = ce_differential(g, v0)
        chi_g = g.modular_character()
        chi_h = S.h.modular_character_values()
        prepared.append((S, g, v0, dv0, chi_g, chi_h))
    count = 0
    while count < 200:
        S, g, v0, dv0, chi_g, chi_h = prepared[count % len(prepared)]
        theta = g.covector([_rational(rng) for _ in range(g.dim)])
        wedge_holds = (-1 * ExteriorElement.from_vector(theta).wedge(v0)) == dv0
        restr_holds = all(theta(v) == chi_g(v) - c for v, c in zip(S.h.basis, chi_h))
        assert wedge_holds == restr_holds
        count += 1


def test_modular_character_closed_under_basis_change_suite():
    """chi is a closed 1-form for every algebra obtained from a catalog
    algebra by an invertible change of basis."""
    rng = random.Random(SEED + 4)
    algebras = _algebras()
    count = 0
    while count < 200:
        L = algebras[count % len(algebras)]
        n = L.dim
        m = _random_invertible(rng, n)
        minv = linalg.invert(m)
        # transformed constants: e'_i = sum_a m[i][a] e_a
        brackets = {}
        new_basis = [L.vector(row) for row in m]
        for i in range(n):
            for j in range(i + 1, n):
                image = L.bracket(new_basis[i], new_basis[j])
                coords = [
                    sum((minv[a][k] * c for a, c in enumerate(image.coords)), Fraction(0))
                    for k in range(n)
                ]
                entry = {k: c for k, c in enumerate(coords) if c}
                if entry:
                    brackets[(i, j)] = entry
        L2 = LieAlgebra([f"e{k}" for k in range(n)], brackets)
        assert L2.jacobi_check() is None
        assert is_closed_one_form(L2, L2.modular_character())
        count += 1


def test_lagrangian_character_crosscheck_suite():
    """Trace of the adjoint action of the double restricted to h (+) h0
    agrees with the pairing against -chi_g* + 2 x_h0, for every coisotropic
    entry and random recombinations of the h basis."""
    rng = random.Random(SEED + 5)
    count = 0
    for name in catalog.HOMSPACE_NAMES:
        S = catalog.build_homspace(name)
        B = S.bialgebra
        D = double_algebra(B)
        m = B.dim
        target_base = -1 * B.dual_modular_character()
        for _ in range(14):
            n = S.h.dim
            if n:
                mtx = _random_invertible(rng, n)
                new_basis = [
                    sum(
                        (mtx[i][j] * S.h.basis[j] for j in range(1, n)),
                        mtx[i][0] * S.h.basis[0],
                    )
                    for i in range(n)
                ]
                h = B.g.subalgebra(new_basis)
            else:
                h = S.h
            S2 = HomogeneousSpaceSpec(name, B, h)
            _, x_h0 = chi_h0(S2)
            target = target_base + 2 * x_h0
            ann = B.g.annihilator(h)
            vectors = [Vector(D, list(v.coords) + [Fraction(0)] * m) for v in h.basis]
            vectors += [Vector(D, [Fraction(0)] * m + list(xi.coords)) for xi in ann]
            sub = Subalgebra(D, vectors, verify=False)
            chi_l = sub.modular_character_values()
            for r, xi in enumerate(ann):
                assert chi_l[n + r] == xi(target)
            count += 1
    assert count >= 200


def test_verdict_invariance_under_h_recombination_suite():
    rng = random.Random(SEED + 6)
    cheap = [n for n in catalog.HOMSPACE_NAMES if n not in ("toda-n3", "full-group")]
    base_rows = {}
    specs = {}
    for name in cheap + ["toda-n3"]:
        S = catalog.build_homspace(name)
        specs[name] = S
        base_rows[name] = classification_row(S)
    count = 0
    schedule = cheap * 15 + ["toda-n3"] * 8
    for name in schedule:
        S = specs[name]
        n = S.h.dim
        mtx = _random_invertible(rng, n)
        new_basis = [
            sum((mtx[i][j] * S.h.basis[j] for j in range(1, n)), mtx[i][0] * S.h.basis[0])
            for i in range(n)
        ]
        S2 = HomogeneousSpaceSpec(name, S.bialgebra, S.bialgebra.g.subalgebra(new_basis))
        assert classification_row(S2) == base_rows[name]
        count += 1
        if count >= 203:
            break
    assert count >= 200
