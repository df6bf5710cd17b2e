"""Test-side oracles: independent, slower formulas the library's fast paths
are compared against.  None of them is used by the library itself."""

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from poishom.exterior import ExteriorElement, _sort_tuple, evaluate_form
from poishom.lie import LieAlgebra, Vector
from poishom.poly import Polynomial


def subs_vars(p: Polynomial, new_vars: Sequence[str], images: Sequence[Polynomial]) -> Polynomial:
    """Substitute each of p's variables by a polynomial in ``new_vars``
    (composition with a polynomial map)."""
    if len(images) != len(p.vars):
        raise ValueError("one image per variable is required")
    out = Polynomial.zero(new_vars)
    for e, c in p.terms.items():
        term = Polynomial.constant(new_vars, c)
        for img, k in zip(images, e):
            if k:
                term = term * img ** k
        out = out + term
    return out


def ce_differential_by_formula(L: LieAlgebra, omega: ExteriorElement) -> ExteriorElement:
    """Alternating-sum form of the Chevalley-Eilenberg differential:

    (d w)(X_0..X_k) = sum_{i<j} (-1)^(i+j) w([X_i,X_j], X_0..^i..^j..X_k).
    """
    if not omega.dual:
        raise ValueError("the differential acts on dual elements")
    k = omega.degree
    m = L.dim
    if k >= m:
        return ExteriorElement.zero(L, m, True)
    basis = [L.basis_vector(i) for i in range(m)]
    terms = {}
    for idx in combinations(range(m), k + 1):
        args = [basis[i] for i in idx]
        val = Fraction(0)
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                rest = [args[r] for r in range(k + 1) if r not in (i, j)]
                sign = -1 if (i + j) % 2 else 1
                val += sign * evaluate_form(omega, [L.bracket(args[i], args[j])] + rest)
        if val:
            terms[idx] = val
    return ExteriorElement(L, k + 1, terms, True)


def wedge_by_sorting(a: ExteriorElement, b: ExteriorElement) -> ExteriorElement:
    """The wedge on Fractions: each pair of terms lands on its sorted
    concatenated index tuple, signed by the parity of the sorting
    permutation (``_sort_tuple``)."""
    a._check(b)
    deg = a.degree + b.degree
    if deg > a.algebra.dim:
        return ExteriorElement.zero(a.algebra, min(deg, a.algebra.dim), a.dual)
    terms = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            merged, sign = _sort_tuple(ia + ib)
            if merged is not None:
                terms[merged] = terms.get(merged, Fraction(0)) + sign * ca * cb
    return ExteriorElement(a.algebra, deg, terms, a.dual)


def ce_differential_by_sorting(L: LieAlgebra, omega: ExteriorElement) -> ExteriorElement:
    """The derivation rule on Fractions: the factor X^a in slot r becomes
    (-1)^r d X^a, d X^a = -sum_{i<j} C_ij^a X^i ^ X^j, and each resulting
    index tuple is sorted with its sign by ``_sort_tuple``."""
    if not omega.dual:
        raise ValueError("the differential acts on dual elements")
    if omega.degree == L.dim:
        return ExteriorElement.zero(L, L.dim, True)
    d_basis = {}
    for pair, image in L._table.items():
        for a, c in image.items():
            d_basis.setdefault(a, []).append((pair, c))
    terms = {}
    for idx, c in omega.terms.items():
        for r, a in enumerate(idx):
            slot = c if r % 2 else -c
            for pair, cij in d_basis.get(a, ()):
                merged, sign = _sort_tuple(idx[:r] + pair + idx[r + 1:])
                if merged is not None:
                    terms[merged] = terms.get(merged, 0) + sign * slot * cij
    return ExteriorElement(L, omega.degree + 1, terms, True)


def adjoint_matrix(L: LieAlgebra, x: Vector) -> list[list[Fraction]]:
    """Matrix of ad_x; column j holds [x, e_j] in basis coordinates."""
    cols = [L.bracket(x, L.basis_vector(j)).coords for j in range(L.dim)]
    return [[cols[j][k] for j in range(L.dim)] for k in range(L.dim)]
