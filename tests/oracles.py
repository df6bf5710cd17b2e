"""Test-side oracles: independent, slower formulas the library's fast paths
are compared against.  None of them is used by the library itself."""

import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from poishom import homspace, linalg
from poishom.bialgebra import (
    CocommutatorMap,
    LieBialgebra,
    sln_basis_matrices,
    sln_standard_bialgebra,
)
from poishom.coord import SPOTCHECK_SEED, JacobiVerdict, _magnitude
from poishom.exterior import (
    ExteriorElement,
    _sort_tuple,
    ad_extension,
    ce_differential,
    top_wedge,
)
from poishom.lie import Covector, LieAlgebra, Subalgebra, Vector, bracket_terms, sparse
from poishom.linalg import integer_table
from poishom.poly import Polynomial, diff_terms, exact_evaluator


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


# The exact polynomial layer as it was before results were built in place:
# every result goes through the public constructor, which converts and
# checks each term, and a sum of many terms is a chain of two-term sums from
# zero.  The key order of ``terms`` is the float evaluator's summation
# order, so the tests compare it as well as the terms.


def add_by_constructor(p: Polynomial, q: Polynomial) -> Polynomial:
    terms = dict(p.terms)
    for e, c in q.terms.items():
        terms[e] = terms.get(e, Fraction(0)) + c
    return Polynomial(p.vars, terms)


def mul_by_constructor(p: Polynomial, q: Polynomial) -> Polynomial:
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return Polynomial(p.vars, out)


def diff_by_constructor(p: Polynomial, var: str) -> Polynomial:
    i = p.vars.index(var)
    out = {}
    for e, c in p.terms.items():
        if e[i]:
            de = list(e)
            de[i] -= 1
            out[tuple(de)] = out.get(tuple(de), Fraction(0)) + c * e[i]
    return Polynomial(p.vars, out)


def sum_by_chained_adds(variables, summands) -> Polynomial:
    out = Polynomial.zero(variables)
    for p in summands:
        out = add_by_constructor(out, p)
    return out


def apply_field_by_chained_sums(X, h: Polynomial) -> Polynomial:
    """X(h) = sum_i X_i dh/dx_i, over the components that are not zero."""
    out = Polynomial.zero(X.vars)
    for name, comp in zip(X.vars, X.components):
        if not comp.is_zero():
            out = add_by_constructor(out, mul_by_constructor(comp, diff_by_constructor(h, name)))
    return out


def sharp_by_chained_sums(model, omega: Sequence[Polynomial]) -> list[Polynomial]:
    """The components sum_i omega_i Pi[i][j] of Pi#(omega)."""
    comps = []
    for j in range(model.dim):
        p = Polynomial.zero(model.vars)
        for i in range(model.dim):
            if not omega[i].is_zero():
                p = add_by_constructor(p, mul_by_constructor(omega[i], model.bracket_entry(i, j)))
        comps.append(p)
    return comps


def divergence_by_chained_sums(X, log_density: Polynomial = None) -> Polynomial:
    """div(X) + X(log_density)."""
    out = Polynomial.zero(X.vars)
    for name, comp in zip(X.vars, X.components):
        out = add_by_constructor(out, diff_by_constructor(comp, name))
    if log_density is not None and not log_density.is_zero():
        out = add_by_constructor(out, apply_field_by_chained_sums(X, log_density))
    return out


def evaluate_form(omega: ExteriorElement, vectors: Sequence[Vector]) -> Fraction:
    """Evaluate a k-form on k vectors (determinant expansion)."""
    if not omega.dual:
        raise ValueError("only dual elements evaluate on vectors")
    if len(vectors) != omega.degree:
        raise ValueError("wrong number of arguments")
    total = Fraction(0)
    for idx, c in omega.terms.items():
        minor = [[v.coords[i] for i in idx] for v in vectors]
        total += c * linalg.det(minor)
    return total


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


def coboundary_by_ad_extension(g: LieAlgebra, r: ExteriorElement) -> list[ExteriorElement]:
    """The coboundary images ad_{e_i} r, one ``ad_extension`` on Fractions
    per basis vector, with their terms in ``ad_extension``'s order."""
    return [ad_extension(g, g.basis_vector(i), r) for i in range(g.dim)]


def ad_terms(full: dict, x_items, terms: dict, out: dict) -> dict:
    """Accumulate the terms of ad_x p into ``out`` and return it.

    ``full`` holds [e_i, e_j] for every ordered pair with a nonzero bracket,
    x is given by its nonzero (index, coefficient) pairs and p by its sparse
    terms; the derivation replaces each factor e_i by [x, e_i] =
    sum_s x_s C_si^k e_k in place, sorting each tuple with ``_sort_tuple``.
    """
    empty: dict = {}
    for idx, c in terms.items():
        for r, i in enumerate(idx):
            for s, xs in x_items:
                for k, ck in full.get((s, i), empty).items():
                    merged, sign = _sort_tuple(idx[:r] + (k,) + idx[r + 1:])
                    if merged is not None:
                        out[merged] = out.get(merged, 0) + sign * xs * ck * c
    return out


def cocycle_check_by_ad_terms(g: LieAlgebra, delta: CocommutatorMap) -> tuple[int, int] | None:
    """The pair-by-pair cocycle check: for each i < j in order, expand
    delta([e_i, e_j]) - ad_{e_i}(delta e_j) + ad_{e_j}(delta e_i) on the
    integer-scaled tables through ``ad_terms`` (one ``_sort_tuple`` per
    wedge term) and return the first pair with a nonzero residual."""
    full = {}
    for (i, j), image in g.ints.items():
        full[(i, j)], full[(j, i)] = image, {k: -c for k, c in image.items()}
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


def theta0_by_completion(L: LieAlgebra, h: Subalgebra, v0: ExteriorElement) -> Covector:
    """theta0 with d v0 = -theta0 ^ v0 by basis completion: complete an
    annihilator basis Y^1..Y^(m-n) by unit covectors X^i, one ``linalg.rank``
    test each, invert the stack for the dual basis (X_i, Y_j), and read
    theta0 = -sum_i (d v0)(X_i, Y_1..Y_(m-n)) / v0(Y_1..Y_(m-n)) X^i."""
    m, n = L.dim, h.dim
    rows = [list(xi.coords) for xi in L.annihilator(h)]
    completion: list[list[Fraction]] = []
    for a in range(m):
        if len(completion) == n:
            break
        cand = [Fraction(int(b == a)) for b in range(m)]
        if linalg.rank(rows + completion + [cand]) > len(rows) + len(completion):
            completion.append(cand)
    inv = linalg.invert(completion + rows)
    dual_vectors = [Vector(L, [inv[r][c] for r in range(m)]) for c in range(m)]
    xs, ys = dual_vectors[:n], dual_vectors[n:]
    dv0 = ce_differential(L, v0)
    scale = evaluate_form(v0, ys)
    coeffs = [evaluate_form(dv0, [x] + ys) / scale for x in xs]
    return Covector(L, [-sum(coeffs[i] * completion[i][a] for i in range(n)) for a in range(m)])


def double_bracket_by_pairings(B: LieBialgebra, a, b) -> tuple[Vector, Covector]:
    """The bracket of the double on pairs a = (X1, xi1), b = (X2, xi2),
    expanded term by term from the defining pairings:

    [X1+xi1, X2+xi2] = [X1,X2] + ad*_{xi1} X2 - ad*_{xi2} X1
                     + [xi1,xi2]_* + ad*_{X1} xi2 - ad*_{X2} xi1,

    with (ad_{g*})*_xi X read off <[e^i, xi]_*, X> and (ad_g)*_X xi off
    -<xi, [X, e_i]>.  Each pairing of a Fraction table entry, <[e^i, e^j]_*, X>
    or <xi, [e_j, e_i]>, is made once and added to both components it enters,
    with the sign of the swapped pair.  Returns the (g, g*) parts."""
    g, dual = B.g, B.dual
    m = g.dim
    (x1, xi1), (x2, xi2) = a, b

    def coad_dual(xi, x):
        comps = [Fraction(0)] * m
        for (i, j), image in dual._table.items():
            if xi.coords[i] or xi.coords[j]:
                pair = sum(c * x.coords[k] for k, c in image.items())  # <[e^i, e^j]_*, X>
                comps[i] += xi.coords[j] * pair
                comps[j] -= xi.coords[i] * pair
        return g.vector(comps)

    def coad_g(x, xi):
        comps = [Fraction(0)] * m
        for (j, i), image in g._table.items():
            if x.coords[i] or x.coords[j]:
                pair = sum(c * xi.coords[k] for k, c in image.items())  # <xi, [e_j, e_i]>
                comps[i] -= x.coords[j] * pair
                comps[j] += x.coords[i] * pair
        return g.covector(comps)

    gpart = g.bracket(x1, x2) + coad_dual(xi1, x2) - coad_dual(xi2, x1)
    dpart = (
        g.covector(dual.bracket(dual.vector(xi1.coords), dual.vector(xi2.coords)).coords)
        + coad_g(x1, xi2)
        - coad_g(x2, xi1)
    )
    return gpart, dpart


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


def _sparse_sln_matrices(n: int):
    """Labels and sparse {(row, col): entry} basis matrices of sl(n)."""
    labels, dense = sln_basis_matrices(n)
    mats = [{(r, c): x for r, row in enumerate(m) for c, x in enumerate(row) if x} for m in dense]
    return labels, mats


def commutator(a, b):
    """AB - BA for sparse {(row, col): entry} matrices."""
    out = {}
    for (r, t), x in a.items():
        for (u, c), y in b.items():
            if t == u:
                out[(r, c)] = out.get((r, c), 0) + x * y
            if c == r:
                out[(u, t)] = out.get((u, t), 0) - y * x
    return out


def sln_algebra_by_fractions(n: int) -> LieAlgebra:
    """sl(n) on Fractions: basis commutators read back through dense D/S/Q
    coordinates, in ``sln_algebra``'s basis and insertion order."""
    labels, mats = _sparse_sln_matrices(n)
    dim, pairs = len(mats), n * (n - 1) // 2

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

    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            entry = {k: c for k, c in enumerate(coords(commutator(mats[i], mats[j]))) if c}
            if entry:
                brackets[(i, j)] = entry
    return LieAlgebra(labels, brackets)


def sln_bialgebra_by_fractions(n: int, eta) -> LieBialgebra:
    """The standard bialgebra of sl(n) on Fractions: basis commutators read
    back through the D/S/Q coordinates, the dual basis through
    ``linalg.invert`` of the trace-form Gram matrix, and [RA, B] + [A, RB]
    read back through traces.  Same basis order and insertion order as
    ``sln_standard_bialgebra``."""
    _, mats = _sparse_sln_matrices(n)
    dim = len(mats)

    def traces(m):
        out = {}
        for k, e in enumerate(mats):
            val = sum((x * m.get((c, r), 0) for (r, c), x in e.items()), Fraction(0))
            if val:
                out[k] = val
        return out

    g = sln_algebra_by_fractions(n)
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
    # from_rmatrix's insertion order: the dual is the transpose of the images
    # taken in index order, each image's terms in key order
    images: dict[int, dict] = {}
    for key, entry in sorted(dual_brackets.items()):
        for k, c in entry.items():
            images.setdefault(k, {})[key] = c
    dual: dict[tuple[int, int], dict] = {}
    for k in sorted(images):
        for key, c in images[k].items():
            dual.setdefault(key, {})[k] = c
    return LieBialgebra(g, CocommutatorMap(g, LieAlgebra(g.dual_labels, dual)), check=False)


# ---------------------------------------------------------------------------
# the Fraction paths the integer kernel replaced
# ---------------------------------------------------------------------------


def double_table_by_fractions(B: LieBialgebra) -> dict:
    """The double's constants read off the Fraction tables of g and g*, in
    sorted order: [e_i, e^a] = F^ac_i e_c - C_ic^a e^c."""
    m = B.dim
    brackets = {key: dict(image) for key, image in B.g._table.items()}
    for (a, b), image in B.dual._table.items():
        brackets[(m + a, m + b)] = {m + c: f for c, f in image.items()}
    for (a, b), image in B.dual._table.items():
        for i, f in image.items():
            brackets.setdefault((i, m + a), {})[b] = f
            brackets.setdefault((i, m + b), {})[a] = -f
    for (i, c), image in B.g._table.items():
        for a, f in image.items():
            brackets.setdefault((i, m + a), {})[m + c] = -f
            brackets.setdefault((c, m + a), {})[m + i] = f
    return {key: dict(sorted(image.items())) for key, image in sorted(brackets.items())}


def jacobi_check_by_fractions(L: LieAlgebra) -> tuple[int, int, int] | None:
    """The first triple i < j < k whose Jacobiator, expanded through
    ``bracket_terms`` on the Fraction table, is nonzero."""
    table = L._table
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            for k in range(j + 1, L.dim):
                total: dict = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = bracket_terms(table, {a: Fraction(1)}, {b: Fraction(1)})
                    for p, x in bracket_terms(table, inner, {c: Fraction(1)}).items():
                        total[p] = total.get(p, 0) + x
                if any(total.values()):
                    return (i, j, k)
    return None


def reduced_by_fractions(h: Subalgebra) -> dict[int, list[tuple[int, Fraction]]]:
    """The Fraction reduced rows of h's basis, from the dense elimination
    (``rref_by_fractions``), as {pivot: [(column, entry) off the pivot]}."""
    red, pivots = rref_by_fractions([list(v.coords) for v in h.basis])
    return {p: [(c, x) for c, x in enumerate(row) if x and c != p] for p, row in zip(pivots, red)}


def contains_by_fractions(reduced: dict, v: dict) -> bool:
    """Membership read off the Fraction reduced rows (``reduced_by_fractions``):
    v minus sum_p v_p R_p vanishes."""
    rest: dict = {}
    for k, x in v.items():
        terms = reduced.get(k)
        if terms is None:
            rest[k] = rest.get(k, 0) + x
        elif x:
            for c, y in terms:
                rest[c] = rest.get(c, 0) - x * y
    return not any(rest.values())


def is_closed_by_fractions(h: Subalgebra) -> bool:
    vecs, reduced = [sparse(v.coords) for v in h.basis], reduced_by_fractions(h)
    return all(
        contains_by_fractions(reduced, bracket_terms(h.parent._table, vecs[i], vecs[j]))
        for i in range(len(vecs))
        for j in range(i + 1, len(vecs))
    )


def is_ideal_by_fractions(h: Subalgebra) -> bool:
    reduced = reduced_by_fractions(h)
    return all(
        contains_by_fractions(
            reduced, bracket_terms(h.parent._table, sparse(v.coords), {a: Fraction(1)})
        )
        for v in h.basis
        for a in range(h.parent.dim)
    )


def is_ideal_on_ints(h: Subalgebra) -> bool:
    """True iff [b, e_a] lies in h's span for every basis vector b and every
    parent basis vector e_a, bracketed on the int table: the ideal test
    ``Subalgebra.is_ideal`` ran before the subgroup type was read off
    delta(h)."""
    table, units = h.parent.ints, [{a: 1} for a in range(h.parent.dim)]
    rows = [row for _, row in h.int_basis]
    return all(h.span.contains(bracket_terms(table, b, e)) for b in rows for e in units)


def bracket_traces_by_fractions(h: Subalgebra, weights) -> tuple[Fraction, ...]:
    """sum_j b_j w_j on each basis vector b, w_j = sum of r [e_j, e_c]_p over
    the Fraction weights (c, p, r), on the Fraction table."""
    table, empty, w = h.parent._table, {}, {}
    for j in {j for v in h.basis for j, x in enumerate(v.coords) if x}:
        w[j] = 0
        for c, p, r in weights:
            key, r = ((j, c), r) if j < c else ((c, j), -r)
            y = table.get(key, empty).get(p)
            if y:
                w[j] += r * y
    return tuple(
        sum((x * w[j] for j, x in enumerate(v.coords) if x and w[j]), Fraction(0))
        for v in h.basis
    )


def modular_character_values_by_fractions(h: Subalgebra) -> tuple[Fraction, ...]:
    reduced = reduced_by_fractions(h)
    return bracket_traces_by_fractions(
        h, [(c, p, r) for p in reduced for c, r in [(p, Fraction(1)), *reduced[p]]]
    )


def quotient_traces_by_fractions(h: Subalgebra) -> tuple[Fraction, ...]:
    reduced = reduced_by_fractions(h)
    free = [(a, a, Fraction(1)) for a in range(h.parent.dim) if a not in reduced]
    return bracket_traces_by_fractions(
        h, free + [(a, p, -x) for p in reduced for a, x in reduced[p]]
    )


def is_closed_one_form_by_pairs(L: LieAlgebra, theta: Covector) -> bool:
    """theta kills [e_i, e_j] for every pair i < j, read by ``bracket_basis``."""
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            val = Fraction(0)
            for k, c in L.bracket_basis(i, j).items():
                val += c * theta.coords[k]
            if val:
                return False
    return True


def rref_by_fractions(mat: linalg.Matrix) -> tuple[linalg.Matrix, list[int]]:
    """Dense Gauss-Jordan elimination on Fractions: (rref matrix, pivots),
    the zero rows kept at the bottom."""
    m = [row[:] for row in mat]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv if x else x for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def read_solution_by_fractions(red: linalg.Matrix, pivots: list[int], cols: int):
    """(particular solution with the free variables at 0 or None, null basis)
    read off a Fraction rref of [mat | rhs]."""
    if cols in pivots:
        return None, []
    x = [Fraction(0)] * cols
    for r, p in enumerate(pivots):
        x[p] = red[r][cols]
    null = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        null.append(v)
    return x, null


def semi_rows_by_fractions(S) -> tuple[linalg.Matrix, linalg.Row]:
    """[closedness; h | rhs] on Fractions: one closedness row per nonzero
    bracket [e_i, e_j], then the basis of h with rhs chi_g - chi_h on it."""
    g = S.bialgebra.g
    rows = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            image = g.bracket_basis(i, j)
            if image:
                rows.append([image.get(k, Fraction(0)) for k in range(g.dim)])
    chi_g = g.modular_character()
    rhs = [Fraction(0)] * len(rows)
    rhs += [chi_g(v) - c for v, c in zip(S.h.basis, S.h.modular_character_values())]
    return rows + [list(v.coords) for v in S.h.basis], rhs


def closedness_rows_by_sorting(L: LieAlgebra) -> list[dict]:
    """The closedness rows as ``homspace._closedness_rows`` built them before
    it split off the one-term images: the table sorted by key, every image
    made primitive and keyed by its sorted items, one row per direction."""
    directions = {}
    for _, image in sorted(L.ints.items()):
        directions.setdefault(tuple(sorted(linalg._primitive(image).items())), None)
    return list(map(dict, directions))


def mu_by_elimination(A) -> tuple:
    """``homspace._Analysis.mu`` with the mu stack always eliminated, also
    when the semi-invariant solution theta0 is unique: the semi-invariant
    reduced rows plus the horizontal rows through ``int_rref``, then the
    preferred witness of the full row stack."""
    red, pivots = A.semi_reduced
    if A.g.dim in pivots:
        return None, []
    horizontal = homspace._mu_rows(A.S.bialgebra, A.chi_g, A.chi_gs)
    reduced = linalg.int_rref(red + horizontal)
    rows, degenerate = A.semi_rows + horizontal, A.S.h.dim == 0
    return homspace._preferred_witness(A.g, A.chi_g, rows, reduced, degenerate_first=degenerate)


def mu_rows_by_fractions(B: LieBialgebra, chi_g: Covector, chi_gs: Vector):
    """Linearized horizontal-field condition on Fractions, one g-valued
    equation per basis vector: 1/2 ([X, chi_g*] - i(chi_g) delta X) +
    i(theta0) delta X = 0, with X bracketed as a dense ``Vector``."""
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
            i_chi = sum((c * chi[a] for a, c in entries.items()), Fraction(0))
            rhs_val = (i_chi - bracket.get(k, 0)) / 2
            if any(entries.values()) or rhs_val:
                row = [Fraction(0)] * g.dim
                for a, c in entries.items():
                    row[a] = c
                rows.append(row)
                rhs.append(rhs_val)
    return rows, rhs


# ---------------------------------------------------------------------------
# exact evaluation by generated code, the form ``poly.exact_evaluator`` and
# ``coord.multiplicativity_spotcheck`` had before they planned their terms
# ---------------------------------------------------------------------------


def exact_evaluator_by_codegen(variables, polys):
    """``poly.exact_evaluator``'s contract, ``(ints, Q)`` with Q = L D**deg,
    by compiled code: one generated statement per term, ``v{j} += c *
    x_i**k * .. * D**m``, each coefficient a hex literal of c times L."""
    n = len(variables)
    if any(p.vars != tuple(variables) for p in polys):
        raise ValueError("polynomial over different variables")
    scale, table = integer_table({j: p.terms for j, p in enumerate(polys)})
    deg = max((p.degree() for p in polys), default=0)
    lines = [f"def _evaluate(D{''.join(f', x{i}' for i in range(n))}):"]
    for j, terms in table.items():
        lines.append(f"    v{j} = 0")
        for e, c in terms.items():
            factors = [f"x{i}**{k}" for i, k in enumerate(e) if k]
            lines.append(f"    v{j} += {hex(c)} * {' * '.join([*factors, f'D**{deg - sum(e)}'])}")
    lines.append(f"    return ({''.join(f'v{j}, ' for j in table)})")
    namespace: dict = {"__builtins__": {}}
    exec(compile("\n".join(lines) + "\n", "<exact_evaluator_by_codegen>", "exec"), namespace)
    compiled = namespace["_evaluate"]

    def evaluate(*point):
        if len(point) != n:
            raise TypeError(f"expected {n} coordinates, got {len(point)}")
        D = math.lcm(*[x.denominator for x in point])
        return compiled(D, *[x.numerator * (D // x.denominator) for x in point]), scale * D**deg

    return evaluate


def multiplicativity_spotcheck_by_codegen(model, pairs: int = 100, rng=None) -> float:
    """``coord.multiplicativity_spotcheck`` with the Jacobian blocks taken by
    ``Polynomial.diff`` and every list evaluated by
    ``exact_evaluator_by_codegen``: the same draws, residual ints and
    returned magnitude."""
    if rng is None:
        rng = random.Random(SPOTCHECK_SEED)
    n = model.dim
    keys = list(model._table)
    entries = exact_evaluator_by_codegen(model.vars, [model._table[key] for key in keys])
    if model.base_point is not None and any(entries(*model.base_point)[0]):
        raise AssertionError("bracket does not vanish at the identity")
    mvars = model.group_mult[0].vars
    d_left = [m.diff(mvars[n + j]) for m in model.group_mult for j in range(n)]
    d_right = [m.diff(mvars[j]) for m in model.group_mult for j in range(n)]
    product_and_jacobians = exact_evaluator_by_codegen(
        mvars, [*model.group_mult, *d_left, *d_right]
    )

    def times_pi(jac, pi):
        out = [[0] * n for _ in range(n)]
        for (i, j), p in zip(keys, pi):
            if p:
                for row, out_row in zip(jac, out):
                    out_row[j] += row[i] * p
                    out_row[i] -= row[j] * p
        return out

    worst = 0.0
    for _ in range(pairs):
        g = model.sampler(rng)
        h = model.sampler(rng)
        values, q_j = product_and_jacobians(*g, *h)
        jl = [values[n + a * n:n + (a + 1) * n] for a in range(n)]
        jr = [values[n + (n + a) * n:n + (n + a + 1) * n] for a in range(n)]
        pi_gh, q_gh = entries(*[Fraction(v, q_j) for v in values[:n]])
        pi_h, q_h = entries(*h)
        pi_g, q_g = entries(*g)
        lhs = dict(zip(keys, pi_gh))
        jl_pi, jr_pi = times_pi(jl, pi_h), times_pi(jr, pi_g)
        q_rhs = q_j * q_j * q_h * q_g
        for a in range(n):
            for b in range(a + 1, n):
                left = sum(x * y for x, y in zip(jl_pi[a], jl[b]))
                right = sum(x * y for x, y in zip(jr_pi[a], jr[b]))
                num = lhs.get((a, b), 0) * q_rhs - q_gh * (q_g * left + q_h * right)
                if num:
                    worst = max(worst, _magnitude(Fraction(num, q_rhs * q_gh)))
    return worst


# ---------------------------------------------------------------------------
# the per-triple Jacobiator expansion and the Pi#-based kernel residual that
# ``coord.jacobi_symbolic`` and ``coord.kernel_obstruction_verify`` had before
# they visited only the nonzero pattern of the table
# ---------------------------------------------------------------------------


def jacobi_symbolic_by_triples(model, rng=None, points: int = 100) -> JacobiVerdict:
    """``coord.jacobi_symbolic`` with each Jacobiator expanded on its own,
    triple by triple in ``combinations`` order, over the dense gradients of
    both orders of every scaled table entry: the same verdict, triple and
    magnitude, and the same draws."""
    n = model.dim
    scale, table = integer_table({key: p.terms for key, p in model._table.items()})
    pi, grads = {}, {}
    for (a, b), terms in table.items():
        grad = [diff_terms(terms, l) for l in range(n)]
        pi[a, b], grads[a, b] = terms, grad
        pi[b, a] = {e: -c for e, c in terms.items()}
        grads[b, a] = [{e: -c for e, c in d.items()} for d in grad]
    rows = [[(l, pi[a, l]) for l in range(n) if (a, l) in pi] for a in range(n)]

    def jacobiator(i, j, k) -> dict:
        acc: dict = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            grad = grads.get((b, c))
            if grad is None:
                continue
            for l, outer in rows[a]:
                for e1, c1 in outer.items():
                    for e2, c2 in grad[l].items():
                        e = tuple([x + y for x, y in zip(e1, e2)])
                        acc[e] = acc.get(e, 0) + c1 * c2
        return acc

    triples = list(combinations(range(n), 3))
    if not model.constraints:
        for triple in triples:
            if any(jacobiator(*triple).values()):
                return JacobiVerdict(False, True, math.inf, triple)
        return JacobiVerdict(True, True)
    if rng is None:
        rng = random.Random(SPOTCHECK_SEED)
    jacobiators = [jacobiator(*triple) for triple in triples]
    if not any(any(j.values()) for j in jacobiators):
        for _ in range(points):
            model.sampler(rng)
        return JacobiVerdict(True, False)
    evaluate = exact_evaluator(model.vars, [Polynomial(model.vars, j) for j in jacobiators])
    for _ in range(points):
        values, q = evaluate(*model.sampler(rng))
        for triple, v in zip(triples, values):
            if v:
                return JacobiVerdict(False, False, _magnitude(Fraction(v, q * scale**2)), triple)
    return JacobiVerdict(True, False)


def kernel_residual_row_by_sharp(model, covector) -> int | None:
    """The first row i whose kernel residual sum_j c_j Pi[i][j] is not the
    zero polynomial, read off Pi#(c) as Fraction polynomials (by
    antisymmetry row i is minus component i), or None for a kernel
    covector."""
    for i, residual in enumerate(model.sharp(covector).components):
        if not residual.is_zero():
            return i
    return None


# ---------------------------------------------------------------------------
# the group-level coordinate models as transcribed by hand, the reference the
# generated ones (``catalog.model_on``) are compared with
# ---------------------------------------------------------------------------


def _quaternion_mult(variables) -> list[Polynomial]:
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


def _matrix_mult(variables, n) -> list[Polynomial]:
    """Entries of the product of two n x n matrices, each given row by row by
    ``variables``, the second one primed."""
    names = list(variables) + [f"{v}'" for v in variables]
    g = [Polynomial.variable(names, v) for v in names]
    return [
        sum((g[i * n + k] * g[n * n + k * n + j] for k in range(n)), Polynomial.zero(names))
        for i in range(n)
        for j in range(n)
    ]


def su2_by_hand(eta) -> dict:
    """su2 at eta: bracket, character, vertical and Morse fields, frame,
    cocommutator images and product, as the catalog once wrote them out."""
    eta = Fraction(eta)
    v = ("x", "y", "z", "t")
    x, y, z, t = (Polynomial.variable(v, n) for n in v)
    half, h = eta / 2, Fraction(1, 2)
    return {
        "brackets": {
            (0, 1): half * (z * z + t * t),
            (0, 2): -half * y * z,
            (0, 3): -half * y * t,
            (1, 2): half * x * z,
            (1, 3): half * x * t,
        },
        "left_chi": [eta * y, -eta * x, eta * t, -eta * z],
        "right_chi": [eta * y, -eta * x, -eta * t, eta * z],
        "vertical": [[-h * y, h * x, -h * t, h * z]],  # left J3
        "morse": [
            [-h * t, -h * z, h * y, h * x],  # left J1
            [-h * z, h * t, h * x, -h * y],  # left J2
        ],
        "frame": [(0, 0, 0, h), (0, 0, h, 0), (0, h, 0, 0)],
        "delta_images": [{(0, 2): eta}, {(1, 2): eta}, {}],
        "group_mult": _quaternion_mult(v),
    }


def sl2_by_hand(structure: str, eta) -> dict:
    """sl2-<structure> at eta, as the catalog once wrote it out."""
    eta = Fraction(eta)
    v = ("x", "y", "z", "t")
    x, y, z, t = (Polynomial.variable(v, n) for n in v)
    zero = Polynomial.zero(v)
    half, h = eta / 2, Fraction(1, 2)
    triangular = [(1, 0, 0, -1), (0, 1, 0, 0), (0, 0, 1, 0)]  # J3, J+, J-
    if structure == "hyperbolic":
        brackets = {
            (0, 1): eta * x * y,
            (0, 2): eta * x * z,
            (0, 3): 2 * eta * y * z,
            (1, 3): eta * y * t,
            (2, 3): eta * z * t,
        }
        left = [-2 * eta * x, 2 * eta * y, -2 * eta * z, 2 * eta * t]
        right = [-2 * eta * x, -2 * eta * y, 2 * eta * z, 2 * eta * t]
        frame = triangular
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
        left = [2 * eta * y, -2 * eta * x, 2 * eta * t, -2 * eta * z]
        right = [-2 * eta * z, -2 * eta * t, 2 * eta * x, 2 * eta * y]
        frame = [(0, h, -h, 0), (0, h, h, 0), (h, 0, 0, -h)]  # P1, P2, J12
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
        left = [zero, -2 * eta * x, zero, -2 * eta * z]
        right = [-2 * eta * z, -2 * eta * t, zero, zero]
        frame = triangular
        delta_images = [{(0, 1): eta}, {}, {(1, 2): -eta}]
    else:
        raise KeyError(structure)
    return {
        "brackets": brackets,
        "left_chi": left,
        "right_chi": right,
        "vertical": [[-h * y, h * x, -h * t, h * z]],  # left P1, P1 = (E12 - E21)/2
        "morse": [],
        "frame": frame,
        "delta_images": delta_images,
        "group_mult": _matrix_mult(v, 2),
    }


def toda3_by_hand() -> dict:
    """toda-n3 (eta = 1), as the catalog once wrote it out; its cocommutator
    images were read from the standard sl(3) structure."""
    v = tuple(f"a{i}{j}" for i in range(1, 4) for j in range(1, 4))
    X = {n: Polynomial.variable(v, n) for n in v}
    idx = {(i, j): 3 * (i - 1) + (j - 1) for i in range(1, 4) for j in range(1, 4)}

    def a(i, j):
        return X[f"a{i}{j}"]

    def sgn(d):
        return (d > 0) - (d < 0)

    brackets = {}
    for (i, j), p in idx.items():
        for (k, l), q in idx.items():
            coeff = sgn(k - i) + sgn(l - j)
            if p < q and coeff:
                brackets[(p, q)] = coeff * a(i, l) * a(k, j)
    zero = Polynomial.zero(v)
    left, right = [zero] * 9, [zero] * 9
    for i in range(1, 4):
        left[idx[(i, 1)]] = -4 * a(i, 1)
        left[idx[(i, 3)]] = 4 * a(i, 3)
        right[idx[(1, i)]] = -4 * a(1, i)
        right[idx[(3, i)]] = 4 * a(3, i)
    return {
        "brackets": brackets,
        "left_chi": left,
        "right_chi": right,
        "vertical": [],
        "morse": [],
        "frame": [tuple(c for row in m for c in row) for m in sln_basis_matrices(3)[1]],
        "delta_images": [dict(im.terms) for im in sln_standard_bialgebra(3, 1).delta.images],
        "group_mult": _matrix_mult(v, 3),
    }


# ---------------------------------------------------------------------------
# the variety samplers and the Hessian in Fraction arithmetic, the forms
# ``catalog``'s int samplers and ``coord.hessian_at`` had before
# ---------------------------------------------------------------------------


def sphere_sampler_by_fractions(rng: random.Random):
    u = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    v = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    w = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    s = u * u + v * v + w * w
    d = 1 + s
    return ((1 - s) / d, 2 * u / d, 2 * v / d, 2 * w / d)


def sl2_sampler_by_fractions(rng: random.Random):
    while True:
        x = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if x:
            break
    y = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    z = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    return (x, y, z, (1 + y * z) / x)


def sl3_sampler_by_fractions(rng: random.Random):
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
    a, b = l21 * d1, l31 * d1
    c = l32 * d2
    return (
        d1, d1 * u12, d1 * u13,
        a, a * u12 + d2, a * u13 + d2 * u23,
        b, b * u12 + c, b * u13 + c * u23 + d3,
    )


def hessian_by_composition(h: Polynomial, point, frame) -> list[list[Fraction]]:
    """H[i][j] = V_i(V_j(h)) at the point, each V_j(h) and V_i(V_j(h)) built
    as a polynomial and evaluated; the criticality test and symmetry check,
    with their messages, of ``coord.hessian_at`` (which also checks the
    model's constraints at the point)."""
    pt = tuple(linalg.frac(c) for c in point)
    firsts = [V(h) for V in frame]
    for k, first in enumerate(firsts):
        if first.eval(pt) != 0:
            raise ValueError(f"dh does not vanish along frame direction {k} at the point")
    n = len(frame)
    H = [[frame[i](firsts[j]).eval(pt) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if H[i][j] != H[j][i]:
                raise AssertionError("Hessian is not symmetric at the critical point")
    return H
