"""Test-side oracles: independent, slower formulas the library's fast paths
are compared against.  None of them is used by the library itself."""

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from poishom.exterior import ExteriorElement, evaluate_form
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


def adjoint_matrix(L: LieAlgebra, x: Vector) -> list[list[Fraction]]:
    """Matrix of ad_x; column j holds [x, e_j] in basis coordinates."""
    cols = [L.bracket(x, L.basis_vector(j)).coords for j in range(L.dim)]
    return [[cols[j][k] for j in range(L.dim)] for k in range(L.dim)]
