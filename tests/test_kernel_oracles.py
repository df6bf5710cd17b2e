"""The sparse structure-constant kernel against its dense reference.

The Jacobi and cocycle checks, the adjoint action on multivectors, the
differential on forms, the Schouten square, the double and the sl(n) builder
contract the sparse bracket tables directly.  The references below are the
dense, object-level constructions they replaced: Jacobiators of ``Vector``
brackets, ``ExteriorElement`` wedges for the adjoint action and the Schouten
square, the double's bracket expanded from its pairings
(``double_bracket_by_pairings``), and sl(n) through dense
n x n matrices, Gram inversion and trace loops.  The differential is checked
against the alternating-sum formula, and the integer bitmask wedge and
differential against the Fraction loops that sort index tuples, and the
sparse int Gauss-Jordan kernel against the dense Fraction elimination.
Every result must agree exactly, including the first violating triple or
pair.
"""

import functools
import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from poishom import catalog, homspace, linalg
from poishom.bialgebra import (
    CocommutatorMap,
    cocycle_check,
    double_algebra,
    sln_algebra,
    sln_basis_matrices,
    sln_standard_bialgebra,
)
from poishom.exterior import (
    ExteriorElement,
    ad_extension,
    ce_differential,
    schouten_square,
    top_wedge,
)
from poishom.lie import LieAlgebra, sparse
from poishom.linalg import integer_row

from conftest import valid_bialgebras
from oracles import (
    ce_differential_by_formula,
    closedness_rows_by_sorting,
    cocycle_check_by_ad_terms,
    ce_differential_by_sorting,
    double_bracket_by_pairings,
    read_solution_by_fractions,
    rref_by_fractions,
    sln_bialgebra_by_fractions,
    wedge_by_sorting,
)

# ---------------------------------------------------------------------------
# dense references
# ---------------------------------------------------------------------------


def ref_jacobi_check(L):
    for i in range(L.dim):
        ei = L.basis_vector(i)
        for j in range(i + 1, L.dim):
            ej = L.basis_vector(j)
            bij = L.bracket(ei, ej)
            for k in range(j + 1, L.dim):
                ek = L.basis_vector(k)
                jacobiator = (
                    L.bracket(bij, ek)
                    + L.bracket(L.bracket(ej, ek), ei)
                    + L.bracket(L.bracket(ek, ei), ej)
                )
                if not jacobiator.is_zero():
                    return (i, j, k)
    return None


def ref_bracket(L, u, v):
    out = [Fraction(0)] * L.dim
    for i, a in enumerate(u.coords):
        for j, b in enumerate(v.coords):
            for k in range(L.dim):
                out[k] += a * b * L.bracket_basis(i, j).get(k, 0)
    return L.vector(out)


def ref_ad_extension(L, x, p):
    out = ExteriorElement.zero(L, p.degree, False)
    for idx, c in p.terms.items():
        for r, i in enumerate(idx):
            image = L.bracket(x, L.basis_vector(i))
            if image.is_zero():
                continue
            left = ExteriorElement.basis(L, idx[:r], False)
            right = ExteriorElement.basis(L, idx[r + 1:], False)
            out = out + c * left.wedge(ExteriorElement.from_vector(image)).wedge(right)
    return out


def ref_schouten_square(L, r):
    out = ExteriorElement.zero(L, 3, False)
    items = list(r.terms.items())
    for (a, b), ca in items:
        ea, eb = L.basis_vector(a), L.basis_vector(b)
        for (c, d), cb in items:
            ec, ed = L.basis_vector(c), L.basis_vector(d)
            for u, rest in (
                (L.bracket(ea, ec), (b, d)),
                (-1 * L.bracket(ea, ed), (b, c)),
                (-1 * L.bracket(eb, ec), (a, d)),
                (L.bracket(eb, ed), (a, c)),
            ):
                if u.is_zero():
                    continue
                term = ExteriorElement.from_vector(u).wedge(ExteriorElement.basis(L, rest, False))
                out = out + (ca * cb) * term
    return out


def ref_cocycle_check(g, delta):
    for i in range(g.dim):
        xi = g.basis_vector(i)
        for j in range(i + 1, g.dim):
            xj = g.basis_vector(j)
            lhs = sum(
                (c * delta.images[k] for k, c in enumerate(g.bracket(xi, xj).coords) if c),
                ExteriorElement.zero(g, 2, False),
            )
            rhs = ref_ad_extension(g, xi, delta.images[j]) - ref_ad_extension(
                g, xj, delta.images[i]
            )
            if lhs != rhs:
                return (i, j)
    return None


def ref_double_table(B):
    m, zero, zero_cov = B.dim, B.g.zero_vector(), B.g.zero_covector()
    basis = [(B.g.basis_vector(i), zero_cov) for i in range(m)] + [
        (zero, B.g.basis_covector(i)) for i in range(m)
    ]
    brackets = {}
    for i in range(2 * m):
        for j in range(i + 1, 2 * m):
            x, xi = double_bracket_by_pairings(B, basis[i], basis[j])
            entry = {k: c for k, c in enumerate(x.coords) if c}
            entry.update({m + k: c for k, c in enumerate(xi.coords) if c})
            if entry:
                brackets[(i, j)] = entry
    return LieAlgebra(list(B.g.labels) + list(B.g.dual_labels), brackets)._table


def _mat_commutator(a, b):
    n = len(a)
    ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    ba = [[sum(b[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[ab[i][j] - ba[i][j] for j in range(n)] for i in range(n)]


def _dense_sln_coords(m, n):
    coords = []
    partial = Fraction(0)
    for k in range(n - 1):
        partial += m[k][k]
        coords.append(partial)
    for i in range(n):
        for j in range(i + 1, n):
            coords.append((m[i][j] + m[j][i]) / 2)
    for i in range(n):
        for j in range(i + 1, n):
            coords.append((m[i][j] - m[j][i]) / 2)
    return coords


def _triangular_split(m, n):
    return [
        [m[i][j] if i > j else -m[i][j] if i < j else Fraction(0) for j in range(n)]
        for i in range(n)
    ]


def ref_sln_tables(n, eta):
    """Brackets of sl(n) and of its standard dual, from dense matrices."""
    labels, mats = sln_basis_matrices(n)
    dim = len(labels)
    g_brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            coords = _dense_sln_coords(_mat_commutator(mats[i], mats[j]), n)
            entry = {k: c for k, c in enumerate(coords) if c}
            if entry:
                g_brackets[(i, j)] = entry
    gram = [
        [sum(mats[a][i][j] * mats[b][j][i] for i in range(n) for j in range(n)) for b in range(dim)]
        for a in range(dim)
    ]
    gram_inv = linalg.invert(gram)

    def covector_matrix(a):
        w = [gram_inv[b][a] for b in range(dim)]
        return [[sum(w[b] * mats[b][i][j] for b in range(dim)) for j in range(n)] for i in range(n)]

    dual_brackets = {}
    for a in range(dim):
        ma = covector_matrix(a)
        for b in range(a + 1, dim):
            mb = covector_matrix(b)
            res = [
                [x + y for x, y in zip(r1, r2)]
                for r1, r2 in zip(
                    _mat_commutator(_triangular_split(ma, n), mb),
                    _mat_commutator(ma, _triangular_split(mb, n)),
                )
            ]
            entry = {}
            for k in range(dim):
                val = sum(res[i][j] * mats[k][j][i] for i in range(n) for j in range(n))
                if val:
                    entry[k] = eta * val
            if entry:
                dual_brackets[(a, b)] = entry
    return LieAlgebra(labels, g_brackets)._table, LieAlgebra(labels, dual_brackets)._table


# ---------------------------------------------------------------------------
# random sparse tables
# ---------------------------------------------------------------------------

small_rational = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def sparse_algebras(draw, max_dim=5, density=0.35):
    """Random sparse rational tables; most fail the Jacobi identity, some at a
    late triple, some not at all."""
    dim = draw(st.integers(2, max_dim))
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            if draw(st.floats(0, 1)) < density:
                k = draw(st.integers(0, dim - 1))
                brackets[(i, j)] = {k: draw(small_rational)}
    return LieAlgebra([f"e{i}" for i in range(dim)], brackets)


@st.composite
def sparse_cocommutators(draw, g, density=0.3):
    images = {}
    for k in range(g.dim):
        terms = {}
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                if draw(st.floats(0, 1)) < density:
                    terms[(i, j)] = draw(small_rational)
        images[k] = terms
    return CocommutatorMap.from_images(g, images)


VALID_ALGEBRAS = [
    catalog.algebra("so3"),
    catalog.algebra("sl2-boost"),
    catalog.algebra("solvable3"),
    catalog.algebra("r2xr2"),
]


@settings(max_examples=150, deadline=None)
@given(sparse_algebras())
def test_jacobi_check_matches_dense_reference(L):
    assert L.jacobi_check() == ref_jacobi_check(L)


def test_jacobi_check_reference_sees_both_verdicts():
    for L in VALID_ALGEBRAS:
        assert L.jacobi_check() is None and ref_jacobi_check(L) is None
    # a violation at the last triple of a 4-dimensional table
    late = LieAlgebra(("a", "b", "c", "d"), {(1, 2): {1: 1}, (2, 3): {2: 1}, (1, 3): {3: 1}})
    assert ref_jacobi_check(late) == (1, 2, 3)
    assert late.jacobi_check() == (1, 2, 3)


@st.composite
def perturbed_algebras(draw):
    """A Jacobi algebra with, most of the time, one structure constant moved,
    so the first violating triple can be anywhere in the table."""
    L = draw(st.sampled_from(VALID_ALGEBRAS + [sln_algebra(3)]))
    brackets = {key: dict(image) for key, image in L._table.items()}
    if draw(st.booleans()) or draw(st.booleans()):
        i, j = sorted(draw(st.lists(st.integers(0, L.dim - 1), min_size=2, max_size=2, unique=True)))
        k = draw(st.integers(0, L.dim - 1))
        image = brackets.setdefault((i, j), {})
        image[k] = image.get(k, 0) + draw(small_rational)
    return LieAlgebra(L.labels, brackets)


@settings(max_examples=100, deadline=None)
@given(perturbed_algebras())
def test_jacobi_check_matches_dense_reference_on_perturbed_algebras(L):
    assert L.jacobi_check() == ref_jacobi_check(L)


def test_jacobi_check_sees_exact_cancellation():
    # sl(2) = <h, e, f> plus d with [e, d] = d: the terms of (h, e, f) are
    # 2h, 0 and -2h and cancel, and (h, e, d) fails with 2d
    L = LieAlgebra(
        ("h", "e", "f", "d"), {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}, (1, 3): {3: 1}}
    )
    assert ref_jacobi_check(L) == (0, 1, 3)
    assert L.jacobi_check() == (0, 1, 3)


def test_jacobi_check_first_violation_is_not_the_first_touched():
    # the sweep starts at [e0, e3] = e3 and touches (0, 2, 3) first, whose terms
    # 0, -e3 and e3 cancel; the first violating triple, (0, 1, 2), comes later
    L = LieAlgebra(("a", "b", "c", "d"), {(0, 3): {3: 1}, (1, 2): {3: 1}, (2, 3): {3: 1}})
    assert list(L._table) == [(0, 3), (1, 2), (2, 3)]
    assert ref_jacobi_check(L) == (0, 1, 2)
    assert L.jacobi_check() == (0, 1, 2)


# coprime denominators near 10^50, and a constant of order 10^-400: below the
# smallest float, so a float evaluation of either identity rounds it to 0.0
# and cancels the rest exactly
P, R, A = 10**50 + 3, 10**50 + 7, 10**49 + 9
EPS = Fraction(1, 10**400 + 1)


def test_jacobi_check_exact_on_a_tiny_residual():
    # [e0, e1] = p e1, [e0, e2] = eps e2, [e0, e3] = p e3, [e1, e2] = r e3: the
    # Jacobiator of (0, 1, 2) is eps r e3, nonzero only in exact arithmetic
    p, r = Fraction(-(10**49) - 1, P), Fraction(7 * 10**49 + 1, R)
    L = LieAlgebra(
        ("a", "b", "c", "d"),
        {(0, 1): {1: p}, (0, 2): {2: EPS}, (0, 3): {3: p}, (1, 2): {3: r}},
    )
    assert ref_jacobi_check(L) == (0, 1, 2)
    assert L.jacobi_check() == (0, 1, 2)


def test_cocycle_check_exact_on_a_tiny_residual():
    # g: [e0, e1] = p e1, [e0, e2] = eps e2; delta(e1) = a e1^e2: the residual
    # of the pair (0, 1) is -eps a e1^e2, nonzero only in exact arithmetic
    p, a = Fraction(3 * 10**49 + 1, P), Fraction(-(10**48) - 1, A)
    g = LieAlgebra(("a", "b", "c"), {(0, 1): {1: p}, (0, 2): {2: EPS}})
    delta = CocommutatorMap.from_images(g, {1: {(1, 2): a}})
    assert ref_cocycle_check(g, delta) == (0, 1)
    assert cocycle_check(g, delta) == (0, 1)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cocycle_check_matches_dense_reference(data):
    g = data.draw(st.one_of(st.sampled_from(VALID_ALGEBRAS), sparse_algebras(max_dim=4)))
    delta = data.draw(sparse_cocommutators(g))
    assert cocycle_check(g, delta) == ref_cocycle_check(g, delta)


def test_cocycle_check_reference_on_catalog_bialgebras():
    for name in catalog.HOMSPACE_NAMES:
        B = catalog.build_homspace(name).bialgebra
        assert cocycle_check(B.g, B.delta) is None
        assert ref_cocycle_check(B.g, B.delta) is None


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cocycle_accumulator_matches_pair_by_pair_check(data):
    g = data.draw(st.one_of(st.sampled_from(VALID_ALGEBRAS), sparse_algebras(max_dim=5)))
    delta = data.draw(sparse_cocommutators(g))
    assert cocycle_check(g, delta) == cocycle_check_by_ad_terms(g, delta)


@functools.cache
def unchecked_sln(n):
    """The standard bialgebra of sl(n) at eta -5/2, built without validation, so
    a broken cocycle check fails the tests below and not the construction."""
    return sln_bialgebra_by_fractions(n, Fraction(-5, 2))


@st.composite
def perturbed_sln_cocommutators(draw):
    """The standard delta of sl(3..5) with one image entry moved by a nonzero
    rational, so the first violating pair can be anywhere."""
    B = unchecked_sln(draw(st.integers(3, 5)))
    images = {k: dict(im.terms) for k, im in enumerate(B.delta.images)}
    k = draw(st.integers(0, B.dim - 1))
    a, b = sorted(draw(st.lists(st.integers(0, B.dim - 1), min_size=2, max_size=2, unique=True)))
    images[k][(a, b)] = images[k].get((a, b), 0) + draw(small_rational.filter(bool))
    return B.g, CocommutatorMap.from_images(B.g, images)


@settings(max_examples=60, deadline=None)
@given(perturbed_sln_cocommutators())
def test_cocycle_accumulator_matches_pair_by_pair_check_on_perturbed_sln(case):
    g, delta = case
    assert cocycle_check(g, delta) == cocycle_check_by_ad_terms(g, delta)


def test_cocycle_accumulator_on_the_standard_sln_deltas():
    for B in map(unchecked_sln, (3, 4, 5)):
        assert cocycle_check(B.g, B.delta) is None
        assert cocycle_check_by_ad_terms(B.g, B.delta) is None


def test_cocycle_check_first_violation_is_not_the_first_touched():
    # [b, c] = -c, delta(a) = a^b, delta(c) = b^c: the sweep starts at [b, c] and
    # touches (1, 2) first, where delta([b, c]) = -b^c and ad_b(delta c) = -b^c
    # cancel; the first violating pair, (0, 2) with ad_c(delta a) = a^c, comes later
    g = LieAlgebra(("a", "b", "c"), {(1, 2): {2: -1}})
    delta = CocommutatorMap.from_images(g, {0: {(0, 1): 1}, 2: {(1, 2): 1}})
    assert ref_cocycle_check(g, delta) == (0, 2)
    assert cocycle_check_by_ad_terms(g, delta) == (0, 2)
    assert cocycle_check(g, delta) == (0, 2)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bracket_and_ad_extension_match_dense_reference(data):
    L = data.draw(st.one_of(st.sampled_from(VALID_ALGEBRAS), sparse_algebras()))
    coords = st.lists(small_rational, min_size=L.dim, max_size=L.dim)
    u, v = L.vector(data.draw(coords)), L.vector(data.draw(coords))
    assert L.bracket(u, v) == ref_bracket(L, u, v)
    degree = data.draw(st.integers(1, L.dim))
    p = ExteriorElement(
        L,
        degree,
        {idx: c for idx, c in zip(combinations(range(L.dim), degree), data.draw(coords)) if c},
        False,
    )
    assert ad_extension(L, u, p) == ref_ad_extension(L, u, p)


def int_basis(rows):
    """The rows as ``Subalgebra.int_basis`` holds them: (s, s row) pairs."""
    return [integer_row(sparse(row)) for row in rows]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_row_span_matches_rank_and_solve(data):
    cols = data.draw(st.integers(1, 5))
    row = st.lists(small_rational, min_size=cols, max_size=cols)
    rows = data.draw(st.lists(row, min_size=1, max_size=cols))
    v = data.draw(row)
    if linalg.rank(rows) < len(rows):
        with pytest.raises(ValueError):
            linalg.RowSpan(int_basis(rows))
        return
    span = linalg.RowSpan(int_basis(rows))
    inside = linalg.in_span(rows, v)
    assert span.contains(sparse(v)) == inside
    want = linalg.solve([list(col) for col in zip(*rows)], v) if inside else None
    assert span.coordinates(sparse(v)) == want
    # a combination of the rows is inside, with its own coefficients back
    coeffs = data.draw(st.lists(small_rational, min_size=len(rows), max_size=len(rows)))
    w = [sum((c * r[k] for c, r in zip(coeffs, rows)), Fraction(0)) for k in range(cols)]
    assert span.coordinates(sparse(w)) == coeffs
    assert span.coordinates(dict(enumerate(w))) == coeffs  # explicit zeros are harmless


@st.composite
def independent_rows(draw):
    """(rows, cols): 0 to cols independent sparse rows of small and
    near-10^50 rationals, none (h = 0) and cols of them (h = g) included."""
    cols = draw(st.integers(1, 5))
    count = draw(st.one_of(st.just(0), st.just(cols), st.integers(0, cols)))
    entry = st.one_of(st.just(Fraction(0)), small_rational, huge_rational)
    row = st.lists(entry, min_size=cols, max_size=cols)
    rows = draw(st.lists(row, min_size=count, max_size=count))
    assume(linalg.rank(rows) == count)
    return rows, cols


@settings(max_examples=150, deadline=None)
@given(independent_rows())
def test_row_span_matches_the_fraction_elimination_of_rows_and_identity(case):
    """``RowSpan`` holds S R off each pivot and S T, R and T being the two
    halves of the rref of [rows | I] and S the lcm of their denominators."""
    rows, cols = case
    span = linalg.RowSpan(int_basis(rows))
    n = len(rows)
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    red, pivots = rref_by_fractions([r + e for r, e in zip(rows, identity)])
    assert list(span.scaled) == list(span.transform) == pivots and span.dim == n
    assert span.scale == math.lcm(*(x.denominator for r in red for x in r))
    S = span.scale
    for r, p in zip(red, pivots):
        assert span.scaled[p] == {c: S * x for c, x in enumerate(r[:cols]) if x and c != p}
        assert span.transform[p] == {s: S * x for s, x in enumerate(r[cols:]) if x}
    ints = [x for t in (span.scaled, span.transform) for r in t.values() for x in r.values()]
    assert all(type(x) is int for x in ints)


@settings(max_examples=150, deadline=None)
@given(independent_rows())
def test_annihilator_matches_the_fraction_null_space(case):
    """ann(h), read off h's span, is the null space of h's rows from the
    dense elimination: the same covectors in the same order."""
    rows, cols = case
    g = LieAlgebra([f"x{i}" for i in range(cols)], {})  # every subspace is a subalgebra
    h = g.subalgebra([g.vector(r) for r in rows])
    red, pivots = rref_by_fractions([r + [Fraction(0)] for r in rows])
    _, null = read_solution_by_fractions(red, pivots, cols)
    assert [list(xi.coords) for xi in g.annihilator(h)] == null


@st.composite
def augmented_matrices(draw):
    """([mat | rhs], cols): sparse rows with small and near-10^50 rationals,
    then zero rows, repeated rows, multiples and a combination of rows with
    its rhs moved (an inconsistent row), in random places."""
    cols = draw(st.integers(1, 5))
    entry = st.one_of(st.just(Fraction(0)), small_rational, huge_rational)
    rows = draw(st.lists(st.lists(entry, min_size=cols + 1, max_size=cols + 1), max_size=6))
    kinds = st.sampled_from(["zero", "repeat", "multiple", "inconsistent"])
    for kind in draw(st.lists(kinds, max_size=4)):
        if kind == "zero" or not rows:
            new = [Fraction(0)] * (cols + 1)
        elif kind == "inconsistent":
            coeffs = draw(st.lists(small_rational, min_size=len(rows), max_size=len(rows)))
            new = [sum(c * x for c, x in zip(coeffs, col)) for col in zip(*rows)]
            new[cols] += draw(small_rational.filter(bool))
        else:
            c = draw(small_rational.filter(bool)) if kind == "multiple" else 1
            new = [c * x for x in draw(st.sampled_from(rows))]
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows, cols


@settings(max_examples=200, deadline=None)
@given(augmented_matrices())
def test_int_rref_matches_the_fraction_elimination(case):
    mat, cols = case
    rows = linalg.int_rows(mat)
    before = [dict(row) for row in rows]
    red, pivots = linalg.int_rref(rows)
    assert rows == before  # the input rows are left as they were
    want, want_pivots = rref_by_fractions(mat)
    assert pivots == want_pivots
    # each int row is its rref row times the positive int that makes it coprime
    for row, p in zip(red, pivots):
        assert row[p] > 0 and math.gcd(*row.values()) == 1
        assert all(x for x in row.values()) and not set(row) & (set(pivots) - {p})
    dense = [[Fraction(r.get(c, 0), r[p]) for c in range(cols + 1)] for r, p in zip(red, pivots)]
    assert dense == want[: len(pivots)]
    assert linalg.rref(mat) == (want, want_pivots)
    assert linalg.read_solution(red, pivots, cols) == read_solution_by_fractions(want, pivots, cols)


# ---------------------------------------------------------------------------
# the closedness rows against the sorted-table builder
# ---------------------------------------------------------------------------


def assert_closedness_rows_match(L):
    """The same primitive rows as the oracle's, in another order, so the
    same ``int_rref``."""
    rows, want = homspace._closedness_rows(L), closedness_rows_by_sorting(L)
    assert sorted(sorted(r.items()) for r in rows) == sorted(sorted(r.items()) for r in want)
    assert linalg.int_rref(rows) == linalg.int_rref(want)


def closedness_tables():
    """(id, build) for every catalog algebra, sl(2..6), the double of sl(3)
    at 3/2, and g and g* of every ``valid_bialgebras`` case (its duals are
    rich in multi-term images)."""
    cases = [(name, functools.partial(catalog.algebra, name)) for name in catalog.ALGEBRAS]
    cases += [(f"sl{n}", functools.partial(sln_algebra, n)) for n in range(2, 7)]
    cases.append(("double-sl3", lambda: sln_standard_bialgebra(3, Fraction(3, 2)).double))
    cases += [(f"{i}-g", lambda b=b: b().g) for i, b in valid_bialgebras()]
    cases += [(f"{i}-dual", lambda b=b: b().dual) for i, b in valid_bialgebras()]
    return cases


CLOSEDNESS = closedness_tables()


@pytest.mark.parametrize("build", [b for _, b in CLOSEDNESS], ids=[i for i, _ in CLOSEDNESS])
def test_closedness_rows_match_the_sorted_table(build):
    assert_closedness_rows_match(build())


def test_closedness_tables_mix_unit_and_multi_term_images():
    tables = [build() for _, build in CLOSEDNESS]
    sizes = {min(len(image), 2) for L in tables for image in L.ints.values()}
    assert sizes == {1, 2}


@settings(max_examples=100, deadline=None)
@given(st.one_of(sparse_algebras(), perturbed_algebras()))
def test_closedness_rows_match_the_sorted_table_on_random_tables(L):
    assert_closedness_rows_match(L)


# ---------------------------------------------------------------------------
# the double and the sl(n) builder
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", catalog.HOMSPACE_NAMES)
def test_double_algebra_matches_double_bracket_catalog(name):
    B = catalog.build_homspace(name).bialgebra
    table = double_algebra(B)._table
    ref = ref_double_table(B)
    assert list(table.items()) == list(ref.items())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_double_algebra_matches_double_bracket_sln(n):
    B = sln_standard_bialgebra(n, Fraction(-2, 3))
    table = double_algebra(B)._table
    ref = ref_double_table(B)
    assert list(table.items()) == list(ref.items())


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("eta", [Fraction(1), Fraction(-2, 3), Fraction(5, 2)])
def test_sln_standard_bialgebra_matches_dense_construction(n, eta):
    g_ref, dual_ref = ref_sln_tables(n, eta)
    B = sln_standard_bialgebra(n, eta)
    assert list(B.g._table.items()) == list(g_ref.items())
    assert list(sln_algebra(n)._table.items()) == list(g_ref.items())
    assert B.dual._table == dual_ref
    assert B.g.labels == tuple(sln_basis_matrices(n)[0])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("eta", [Fraction(1), Fraction(-2, 3), Fraction(5, 2)])
def test_sln_standard_bialgebra_matches_fraction_construction(n, eta):
    """The integer builder against the Fraction one it replaced, entry for
    entry and in insertion order."""
    B, R = sln_standard_bialgebra(n, eta), sln_bialgebra_by_fractions(n, eta)
    for got, want in ((B.g, R.g), (B.dual, R.dual)):
        assert list(got._table.items()) == list(want._table.items())
        assert all(type(c) is Fraction for image in got._table.values() for c in image.values())
    assert [list(im.terms.items()) for im in B.delta.images] == [
        list(im.terms.items()) for im in R.delta.images
    ]


# ---------------------------------------------------------------------------
# the differential on forms and the Schouten square
# ---------------------------------------------------------------------------


def random_element(data, L, dual):
    degree = data.draw(st.integers(0, L.dim))
    idxs = list(combinations(range(L.dim), degree))
    coeffs = data.draw(st.lists(small_rational, min_size=len(idxs), max_size=len(idxs)))
    return ExteriorElement(L, degree, dict(zip(idxs, coeffs)), dual)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ce_differential_matches_alternating_sum(data):
    """The derivation rule and the alternating sum agree on any table: neither
    uses the Jacobi identity, so the non-Jacobi tables count too."""
    L = data.draw(st.one_of(st.sampled_from(VALID_ALGEBRAS), sparse_algebras()))
    w = random_element(data, L, dual=True)
    assert ce_differential(L, w) == ce_differential_by_formula(L, w)


def sl3_quotient_volumes():
    """Top wedges V0 of the annihilator for the sl(3) Cartan, so(3) and the
    Borel of upper-triangular matrices."""
    g = sln_algebra(3)

    def vec(entries):
        return g.vector([entries.get(label, 0) for label in g.labels])

    cartan = [vec({"D1": 1}), vec({"D2": 1})]
    subs = {
        "cartan": cartan,
        "so3": [vec({f"Q{i}{j}": 1}) for i, j in ((1, 2), (1, 3), (2, 3))],
        "borel": cartan + [vec({f"S{i}{j}": 1, f"Q{i}{j}": 1}) for i, j in ((1, 2), (1, 3), (2, 3))],
    }
    return g, {k: top_wedge(g, g.annihilator(g.subalgebra(b))) for k, b in subs.items()}


def test_ce_differential_matches_alternating_sum_on_sl3_volumes():
    g, volumes = sl3_quotient_volumes()
    for kind, v0 in volumes.items():
        assert not v0.is_zero(), kind
        assert ce_differential(g, v0) == ce_differential_by_formula(g, v0), kind


SCHOUTEN_ALGEBRAS = [
    catalog.algebra("so3"),
    catalog.algebra("sl2-boost"),
    catalog.algebra("sl2-triangular"),
    sln_algebra(3),
]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_schouten_square_matches_object_level_reference(data):
    L = data.draw(st.sampled_from(SCHOUTEN_ALGEBRAS))
    pairs = list(combinations(range(L.dim), 2))
    density = data.draw(st.sampled_from([0.15, 0.5, 1.0]))
    r = ExteriorElement(
        L,
        2,
        {p: data.draw(small_rational) for p in pairs if data.draw(st.floats(0, 1)) < density},
        False,
    )
    assert schouten_square(L, r) == ref_schouten_square(L, r)


# ---------------------------------------------------------------------------
# the integer wedge and differential against the tuple-sorting loops
# ---------------------------------------------------------------------------

TINY = Fraction(1, 10**400 + 1)  # 0.0 as a float; any rounding path loses it
huge_rational = st.builds(Fraction, st.integers(-(10**50), 10**50), st.integers(1, 10**50))
wide_rational = st.one_of(small_rational, huge_rational, st.just(TINY))


@st.composite
def wide_algebras(draw, max_dim=6):
    """Random tables (Jacobi or not) with coefficients from tiny to 50-digit
    numerators and denominators, on 1 to ``max_dim`` basis vectors."""
    dim = draw(st.integers(1, max_dim))
    density = draw(st.sampled_from([0.0, 0.3, 0.7]))
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            if draw(st.floats(0, 1)) < density:
                ks = draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=3))
                brackets[(i, j)] = {k: draw(wide_rational) for k in sorted(ks)}
    return LieAlgebra([f"e{i}" for i in range(dim)], brackets)


def wide_element(data, L, dual, degree):
    """A form or multivector of the given degree; empty about one time in
    four, otherwise on a random set of index tuples in random order."""
    idxs = list(combinations(range(L.dim), degree))
    density = data.draw(st.sampled_from([0.0, 0.4, 1.0]))
    picked = [idx for idx in idxs if data.draw(st.floats(0, 1)) < density]
    picked = data.draw(st.permutations(picked))
    return ExteriorElement(L, degree, {idx: data.draw(wide_rational) for idx in picked}, dual)


def same_terms(got, want):
    """Equal degree, space and terms, term for term in the same order, every
    coefficient a Fraction."""
    assert (got.degree, got.dual) == (want.degree, want.dual)
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(c) is Fraction for c in got.terms.values())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_wedge_matches_sorting_reference(data):
    """Every pair of degrees 0..dim, so p + q runs through below-top, top and
    beyond-top; primal and dual alike."""
    L = data.draw(wide_algebras())
    dual = data.draw(st.booleans())
    p = data.draw(st.integers(0, L.dim))
    q = data.draw(st.integers(0, L.dim))
    a, b = wide_element(data, L, dual, p), wide_element(data, L, dual, q)
    same_terms(a.wedge(b), wedge_by_sorting(a, b))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ce_differential_matches_sorting_reference(data):
    """Degrees 0..dim, the top degree included."""
    L = data.draw(st.one_of(st.sampled_from(VALID_ALGEBRAS), wide_algebras()))
    w = wide_element(data, L, True, data.draw(st.integers(0, L.dim)))
    same_terms(ce_differential(L, w), ce_differential_by_sorting(L, w))


def test_integer_kernels_edge_cases():
    """Empty forms at every degree, the top and beyond-top branches, and a
    1/(10^400 + 1) coefficient in the table and in the forms."""
    L = LieAlgebra(
        ["e0", "e1", "e2", "e3"],
        {
            (0, 1): {2: TINY, 3: Fraction(10**50, 3)},
            (1, 2): {0: 1},
            (0, 3): {1: Fraction(-7, 10**50)},
        },
    )
    for dual in (True, False):
        for p in range(L.dim + 1):
            empty = ExteriorElement.zero(L, p, dual)
            for q in range(L.dim + 1):
                idxs = combinations(range(L.dim), q)
                full = ExteriorElement(L, q, {idx: TINY for idx in idxs}, dual)
                same_terms(empty.wedge(full), wedge_by_sorting(empty, full))
                same_terms(full.wedge(empty), wedge_by_sorting(full, empty))
                got = full.wedge(full)
                same_terms(got, wedge_by_sorting(full, full))
                if q == 0:
                    assert got.terms == {(): TINY * TINY}
                if 2 * q > L.dim:
                    assert got.is_zero() and got.degree == L.dim  # beyond top
    for p in range(L.dim + 1):
        empty = ExteriorElement.zero(L, p, True)
        same_terms(ce_differential(L, empty), ExteriorElement.zero(L, min(p + 1, L.dim), True))
        idxs = combinations(range(L.dim), p)
        w = ExteriorElement(L, p, {idx: TINY + k for k, idx in enumerate(idxs)}, True)
        same_terms(ce_differential(L, w), ce_differential_by_sorting(L, w))
    # d X^2 = -TINY X^0 ^ X^1: nothing rounds the coefficient away
    assert ce_differential(L, ExteriorElement.basis(L, [2], True)).terms == {(0, 1): -TINY}
    top = ExteriorElement(L, L.dim, {(0, 1, 2, 3): TINY}, True)
    assert ce_differential(L, top) == ExteriorElement.zero(L, L.dim, True)


def test_integer_kernels_on_sl3_volumes():
    g, volumes = sl3_quotient_volumes()
    for kind, v0 in volumes.items():
        same_terms(ce_differential(g, v0), ce_differential_by_sorting(g, v0))
        for xi in g.annihilator(g.subalgebra([g.basis_vector(0)])):
            x = ExteriorElement.from_vector(xi)
            same_terms(x.wedge(v0), wedge_by_sorting(x, v0))
