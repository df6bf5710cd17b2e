"""Test-side oracles: independent, slower formulas the library's fast paths
are compared against.  None of them is used by the library itself."""

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from poishom import linalg
from poishom.bialgebra import (
    CocommutatorMap,
    LieBialgebra,
    delta_from_dual,
    sln_basis_matrices,
    sln_standard_bialgebra,
)
from poishom.exterior import (
    ExteriorElement,
    _sort_tuple,
    ad_extension,
    ce_differential,
    top_wedge,
)
from poishom.lie import Covector, LieAlgebra, Subalgebra, Vector, bracket_terms, sparse
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
    -<xi, [X, e_i]>.  Returns the (g, g*) parts."""
    g, dual = B.g, B.dual
    m = g.dim
    (x1, xi1), (x2, xi2) = a, b

    def coad_dual(xi, x):
        comps = []
        for i in range(m):
            br = dual.bracket(dual.basis_vector(i), dual.vector(xi.coords))
            comps.append(sum(br.coords[k] * x.coords[k] for k in range(m)))
        return g.vector(comps)

    def coad_g(x, xi):
        comps = []
        for i in range(m):
            br = g.bracket(x, g.basis_vector(i))
            comps.append(-sum(xi.coords[k] * br.coords[k] for k in range(m)))
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
    labels, mats = _sparse_sln_matrices(n)
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
    return LieBialgebra(g, delta_from_dual(g, LieAlgebra(labels, dual_brackets)), check=False)


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
