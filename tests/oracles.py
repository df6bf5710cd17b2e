"""Test-side oracles: independent, slower formulas the library's fast paths
are compared against.  None of them is used by the library itself."""

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from poishom import linalg
from poishom.bialgebra import CocommutatorMap, LieBialgebra, delta_from_dual, sln_basis_matrices
from poishom.exterior import (
    ExteriorElement,
    _sort_tuple,
    ad_terms,
    ce_differential,
    evaluate_form,
    top_wedge,
)
from poishom.lie import Covector, LieAlgebra, Vector
from poishom.linalg import integer_table
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


def cocycle_check_by_ad_terms(g: LieAlgebra, delta: CocommutatorMap) -> tuple[int, int] | None:
    """The pair-by-pair cocycle check: for each i < j in order, expand
    delta([e_i, e_j]) - ad_{e_i}(delta e_j) + ad_{e_j}(delta e_i) on the
    integer-scaled tables through ``ad_terms`` (one ``_sort_tuple`` per
    wedge term) and return the first pair with a nonzero residual."""
    _, full = integer_table(g.full_table())
    _, images = integer_table({k: im.terms for k, im in enumerate(delta.images)})
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            diff: dict[tuple[int, ...], int] = {}
            for k, c in full.get((i, j), {}).items():
                for key, d in images[k].items():
                    diff[key] = diff.get(key, 0) + c * d
            ad_terms(full, ((i, -1),), images[j], diff)
            ad_terms(full, ((j, 1),), images[i], diff)
            if any(diff.values()):
                return (i, j)
    return None


def adjoint_matrix(L: LieAlgebra, x: Vector) -> list[list[Fraction]]:
    """Matrix of ad_x; column j holds [x, e_j] in basis coordinates."""
    cols = [L.bracket(x, L.basis_vector(j)).coords for j in range(L.dim)]
    return [[cols[j][k] for j in range(L.dim)] for k in range(L.dim)]


def v0_certificate(S):
    """The exterior volume certificate of a homogeneous space S: V0 is the top
    wedge of ann(h), differentiated once.  Returns ``holds(theta0)``, which
    says whether d V0 = -theta0 ^ V0, or d V0 = 0 when theta0 is None."""
    g = S.bialgebra.g
    v0 = top_wedge(g, g.annihilator(S.h))
    dv0 = ce_differential(g, v0)

    def holds(theta0: Covector | None) -> bool:
        if theta0 is None:
            return dv0.is_zero()
        return dv0 == -1 * ExteriorElement.from_vector(theta0).wedge(v0)

    return holds


def sln_bialgebra_by_fractions(n: int, eta) -> LieBialgebra:
    """The standard bialgebra of sl(n) on Fractions: basis commutators read
    back through the D/S/Q coordinates, the dual basis through
    ``linalg.invert`` of the trace-form Gram matrix, and [RA, B] + [A, RB]
    read back through traces.  Same basis order and insertion order as
    ``sln_standard_bialgebra``."""
    labels, dense = sln_basis_matrices(n)
    mats = [{(r, c): x for r, row in enumerate(m) for c, x in enumerate(row) if x} for m in dense]
    dim, pairs = len(mats), n * (n - 1) // 2

    def commutator(a, b):
        out = {}
        for (r, t), x in a.items():
            for (u, c), y in b.items():
                if t == u:
                    out[(r, c)] = out.get((r, c), 0) + x * y
                if c == r:
                    out[(u, t)] = out.get((u, t), 0) - y * x
        return out

    def coords(m):
        out = [Fraction(0)] * dim
        for (r, c), x in m.items():
            if r == c:
                for k in range(r, n - 1):
                    out[k] += x
                continue
            i, j = min(r, c), max(r, c)
            s = n - 1 + i * n - i * (i + 1) // 2 + (j - i - 1)
            out[s] += x / 2
            out[s + pairs] += x / 2 if r < c else -x / 2
        return out

    def traces(m):
        out = {}
        for k, e in enumerate(mats):
            val = sum((x * m.get((c, r), 0) for (r, c), x in e.items()), Fraction(0))
            if val:
                out[k] = val
        return out

    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            entry = {k: c for k, c in enumerate(coords(commutator(mats[i], mats[j]))) if c}
            if entry:
                brackets[(i, j)] = entry
    g = LieAlgebra(labels, brackets)
    gram_inv = linalg.invert([[traces(a).get(b, Fraction(0)) for b in range(dim)] for a in mats])
    covs, splits = [], []
    for a in range(dim):
        ma = {}
        for b in range(dim):
            for key, x in mats[b].items():
                if gram_inv[b][a]:
                    ma[key] = ma.get(key, 0) + gram_inv[b][a] * x
        covs.append(ma)
        splits.append({(r, c): x if r > c else -x for (r, c), x in ma.items() if r != c})
    dual_brackets = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            res = commutator(splits[a], covs[b])
            for key, x in commutator(covs[a], splits[b]).items():
                res[key] = res.get(key, 0) + x
            entry = {k: eta * v for k, v in traces(res).items()}
            if entry:
                dual_brackets[(a, b)] = entry
    return LieBialgebra(g, delta_from_dual(g, LieAlgebra(labels, dual_brackets)), check=False)
