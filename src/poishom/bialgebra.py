"""Lie bialgebras: cocommutators, dual algebras, and the double.

The cocommutator delta: g -> Lambda^2 g and the dual bracket determine each
other by transposition, <[xi, zeta]_*, X> = (delta X)(xi, zeta).  A
``LieBialgebra`` always carries both and validates on construction that delta
is a 1-cocycle and that the dual satisfies the Jacobi identity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .exterior import (
    ExteriorElement,
    ad_extension,
    is_ad_invariant,
    schouten_square,
)
from .lie import Covector, LieAlgebra, Vector
from .linalg import frac, integer_table


class CocommutatorMap:
    """Linear map g -> Lambda^2 g given by its images on the basis."""

    def __init__(self, algebra: LieAlgebra, images: Sequence[ExteriorElement]):
        if len(images) != algebra.dim:
            raise ValueError("one image per basis vector is required")
        for im in images:
            if im.dual or im.degree != 2 or im.algebra is not algebra:
                raise ValueError("images must be degree-2 primal elements")
        self.algebra = algebra
        self.images = tuple(images)

    @classmethod
    def zero(cls, algebra: LieAlgebra) -> "CocommutatorMap":
        return cls(algebra, [ExteriorElement.zero(algebra, 2, False)] * algebra.dim)

    @classmethod
    def from_rmatrix(cls, algebra: LieAlgebra, r: ExteriorElement) -> "CocommutatorMap":
        """Coboundary cocommutator delta(X) = ad_X r."""
        if r.dual or r.degree != 2:
            raise ValueError("r must be a degree-2 primal element")
        return cls(
            algebra,
            [ad_extension(algebra, algebra.basis_vector(i), r) for i in range(algebra.dim)],
        )

    @classmethod
    def from_images(cls, algebra: LieAlgebra, table: dict) -> "CocommutatorMap":
        """table maps basis index (or label) to {(i, j): coeff} with i < j."""
        images = [ExteriorElement.zero(algebra, 2, False) for _ in range(algebra.dim)]
        for key, terms in table.items():
            idx = algebra.index(key) if isinstance(key, str) else key
            images[idx] = ExteriorElement(algebra, 2, terms, False)
        return cls(algebra, images)

    def is_zero(self) -> bool:
        return all(im.is_zero() for im in self.images)

    def __eq__(self, other):
        return (
            isinstance(other, CocommutatorMap)
            and self.algebra is other.algebra
            and self.images == other.images
        )


def cocycle_check(g: LieAlgebra, delta: CocommutatorMap) -> Optional[tuple[int, int]]:
    """First basis pair (i < j, in lexicographic order) violating
    delta([X, Y]) = ad_X(delta Y) - ad_Y(delta X), or None.  The residual is
    bilinear in the constants and delta, so it runs on the two tables scaled
    to ints.  All its terms go into one accumulator: delta([e_i, e_j]) on the
    pair (i, j), ad_{e_x}(delta e_y) with - on (x, y) if x < y, + on (y, x) if x > y."""
    _, table = integer_table(g._table)
    _, images = integer_table({k: im.terms for k, im in enumerate(delta.images)})
    n = g.dim
    # the e_a ^ e_b component of pair (i, j) is keyed ((i n + j) n + a) n + b,
    # so the least key with a nonzero sum is on the first violating pair
    acc: dict[int, int] = {}
    rows: list[list] = [[] for _ in range(n)]  # (x, [e_x, e_a]) for each a
    for (i, j), image in table.items():
        rows[j].append((i, list(image.items())))
        rows[i].append((j, [(k, -c) for k, c in image.items()]))
        base = (i * n + j) * n * n
        for k, c in image.items():
            for (a, b), d in images[k].items():
                acc[base + a * n + b] = acc.get(base + a * n + b, 0) + c * d
    for y, terms in images.items():
        for (a, b), d in terms.items():
            # e_u replaced by [e_x, e_u] = sum c e_k gives s e_k ^ e_v, v the other factor
            for u, v, s in ((a, b, d), (b, a, -d)):
                for x, bracket in rows[u]:
                    if x == y:
                        continue
                    base, t = ((x * n + y) * n, -s) if x < y else ((y * n + x) * n, s)
                    for k, c in bracket:
                        if k < v:
                            key = (base + k) * n + v
                            acc[key] = acc.get(key, 0) + t * c
                        elif k > v:
                            key = (base + v) * n + k
                            acc[key] = acc.get(key, 0) - t * c
    first = min((key for key, v in acc.items() if v), default=None)
    return None if first is None else (first // n**3, first // n**2 % n)


def dual_constants(delta: CocommutatorMap) -> LieAlgebra:
    """The bracket on g* transposed from delta:
    [X^i, X^j]_* = sum_k (delta X_k)^{ij} X^k."""
    g = delta.algebra
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for k in range(g.dim):
        for (i, j), c in delta.images[k].terms.items():
            brackets.setdefault((i, j), {})[k] = c
    return LieAlgebra(g.dual_labels, brackets)


def delta_from_dual(g: LieAlgebra, dual: LieAlgebra) -> CocommutatorMap:
    """Transpose a dual-algebra bracket table back to a cocommutator on g."""
    if dual.dim != g.dim:
        raise ValueError("dimension mismatch")
    terms: list[dict[tuple[int, int], Fraction]] = [{} for _ in range(g.dim)]
    for (i, j), image in sorted(dual._table.items()):
        for k, c in image.items():
            terms[k][(i, j)] = c
    return CocommutatorMap(g, [ExteriorElement(g, 2, t, False) for t in terms])


def _named(indices: tuple[int, ...], L: LieAlgebra) -> str:
    """A violating basis tuple by label, then by index: '(a, b) = (0, 1)'."""
    return f"({', '.join(L.labels[i] for i in indices)}) = {indices}"


class LieBialgebra:
    """A compatible pair (g, delta), with the derived dual algebra."""

    def __init__(self, g: LieAlgebra, delta: CocommutatorMap, check: bool = True):
        if delta.algebra is not g:
            raise ValueError("cocommutator is over a different algebra")
        self.g = g
        self.delta = delta
        self.dual = dual_constants(delta)
        self.yang_baxter: Optional[str] = None  # set for coboundary structures
        if check:
            bad = self.dual.jacobi_check()
            if bad is not None:
                bad = _named(bad, self.dual)
                raise ValueError(f"dual constants fail the Jacobi identity at {bad}")
            bad = cocycle_check(g, delta)
            if bad is not None:
                raise ValueError(f"cocommutator fails the 1-cocycle condition at {_named(bad, g)}")

    @classmethod
    def trivial(cls, g: LieAlgebra) -> "LieBialgebra":
        return cls(g, CocommutatorMap.zero(g))

    @classmethod
    def from_rmatrix(cls, g: LieAlgebra, r: ExteriorElement) -> "LieBialgebra":
        b = cls(g, CocommutatorMap.from_rmatrix(g, r))
        square = schouten_square(g, r)
        if square.is_zero():
            b.yang_baxter = "cybe"
        elif is_ad_invariant(g, square):
            b.yang_baxter = "mcybe"
        else:
            b.yang_baxter = "other"
        return b

    @property
    def dim(self) -> int:
        return self.g.dim

    @cached_property
    def double(self) -> LieAlgebra:
        """The double g (+) g*, built once for its Jacobi and Lagrangian checks."""
        return double_algebra(self)

    def dual_modular_character(self) -> Vector:
        """chi_{g*} reinterpreted as an element of g via the canonical pairing."""
        return Vector(self.g, self.dual.modular_character().coords)

    def double_element(self, x: Vector | None = None, xi: Covector | None = None):
        return DoubleElement(
            self,
            x if x is not None else self.g.zero_vector(),
            xi if xi is not None else self.g.zero_covector(),
        )


class DoubleElement:
    """Element X + xi of g (+) g*, the argument and value of ``double_bracket``."""

    __slots__ = ("bialgebra", "x", "xi")

    def __init__(self, bialgebra: LieBialgebra, x: Vector, xi: Covector):
        if x.algebra is not bialgebra.g or xi.algebra is not bialgebra.g:
            raise ValueError("components over a different algebra")
        self.bialgebra = bialgebra
        self.x = x
        self.xi = xi

    def __eq__(self, other):
        return (
            isinstance(other, DoubleElement)
            and self.bialgebra is other.bialgebra
            and self.x == other.x
            and self.xi == other.xi
        )

    def __repr__(self):
        return f"({self.x!r}) + ({self.xi!r})"


def _coadjoint_dual_on_g(B: LieBialgebra, xi: Covector, x: Vector) -> Vector:
    """(ad^{g*})*_xi X, the element of g with value <[xi', xi]_*, X> on xi'."""
    dual = B.dual
    comps = []
    for a in range(B.dim):
        bracket = dual.bracket(dual.basis_vector(a), Vector(dual, xi.coords))
        comps.append(sum((c * x.coords[k] for k, c in enumerate(bracket.coords) if c), Fraction(0)))
    return Vector(B.g, comps)


def _coadjoint_g_on_dual(B: LieBialgebra, x: Vector, xi: Covector) -> Covector:
    """(ad^g)*_X xi, the covector with value -<xi, [X, X']> on X'."""
    comps = []
    for a in range(B.dim):
        bracket = B.g.bracket(x, B.g.basis_vector(a))
        comps.append(
            -sum((c * xi.coords[k] for k, c in enumerate(bracket.coords) if c), Fraction(0))
        )
    return Covector(B.g, comps)


def double_bracket(B: LieBialgebra, a: DoubleElement, b: DoubleElement) -> DoubleElement:
    """Bracket of the double g (+) g*:

    [X1+xi1, X2+xi2] = [X1,X2] + ad*_{xi1} X2 - ad*_{xi2} X1
                     + [xi1,xi2]_* + ad*_{X1} xi2 - ad*_{X2} xi1.
    """
    if a.bialgebra is not B or b.bialgebra is not B:
        raise ValueError("elements of a different double")
    dual = B.dual
    g_part = (
        B.g.bracket(a.x, b.x)
        + _coadjoint_dual_on_g(B, a.xi, b.x)
        - _coadjoint_dual_on_g(B, b.xi, a.x)
    )
    dual_bracket = dual.bracket(Vector(dual, a.xi.coords), Vector(dual, b.xi.coords))
    dual_part = (
        Covector(B.g, dual_bracket.coords)
        + _coadjoint_g_on_dual(B, a.x, b.xi)
        - _coadjoint_g_on_dual(B, b.x, a.xi)
    )
    return DoubleElement(B, g_part, dual_part)


def double_algebra(B: LieBialgebra) -> LieAlgebra:
    """The double as a structure-constant algebra on basis (e_1..e_m, e^1..e^m).

    With [e_i, e_j] = C_ij^k e_k on g and [e^a, e^b]_* = F^ab_c e^c on g*, the
    constants are read off in closed form (summing over repeated indices):

        [e_i, e_j] = C_ij^k e_k,   [e^a, e^b] = F^ab_c e^c,
        [e_i, e^a] = F^ac_i e_c - C_ic^a e^c,

    which is ``double_bracket`` on basis elements.
    """
    m = B.dim
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j), image in B.g._table.items():
        brackets[(i, j)] = dict(image)
    for (a, b), image in B.dual._table.items():
        brackets[(m + a, m + b)] = {m + c: f for c, f in image.items()}
    # each (key, index) below is reached from exactly one table entry
    for (a, b), image in B.dual._table.items():
        for i, f in image.items():
            brackets.setdefault((i, m + a), {})[b] = f  # F^ab_i e_b in [e_i, e^a]
            brackets.setdefault((i, m + b), {})[a] = -f  # F^ba_i e_a in [e_i, e^b]
    for (i, c), image in B.g._table.items():
        for a, f in image.items():
            brackets.setdefault((i, m + a), {})[m + c] = -f  # -C_ic^a e^c in [e_i, e^a]
            brackets.setdefault((c, m + a), {})[m + i] = f  # -C_ci^a e^i in [e_c, e^a]
    labels = list(B.g.labels) + list(B.g.dual_labels)
    return LieAlgebra(
        labels, {key: dict(sorted(image.items())) for key, image in sorted(brackets.items())}
    )


def double_jacobi_check(B: LieBialgebra) -> Optional[tuple[int, int, int]]:
    """Jacobi identity of the double on all basis triples (None when it holds)."""
    return B.double.jacobi_check()


# ---------------------------------------------------------------------------
# sl(n, R) with its standard bialgebra structure, generated from the
# triangular-splitting map R (R = -1 on strict upper, 0 on diagonal, +1 on
# strict lower part) via [A, B]_* = [RA, B] + [A, RB] under the trace pairing.
# ---------------------------------------------------------------------------


def _sln_basis(n: int) -> tuple[list[str], list[dict[tuple[int, int], int]]]:
    """Labels and sparse {(row, col): +-1} matrices for the split basis of
    sl(n): traceless diagonals D_k, symmetric S_ij and antisymmetric Q_ij
    off-diagonal pairs."""
    labels: list[str] = []
    mats: list[dict[tuple[int, int], int]] = []
    for k in range(n - 1):
        labels.append(f"D{k+1}")
        mats.append({(k, k): 1, (k + 1, k + 1): -1})
    for name, sign in (("S", 1), ("Q", -1)):
        for i in range(n):
            for j in range(i + 1, n):
                labels.append(f"{name}{i+1}{j+1}")
                mats.append({(i, j): 1, (j, i): sign})
    return labels, mats


def sln_basis_matrices(n: int) -> tuple[list[str], list[list[list[Fraction]]]]:
    """Labels and dense matrices for the split basis of sl(n)."""
    labels, sparse = _sln_basis(n)
    mats = []
    for entries in sparse:
        m = [[Fraction(0)] * n for _ in range(n)]
        for (r, c), x in entries.items():
            m[r][c] = Fraction(x)
        mats.append(m)
    return labels, mats


def _commutator(a: dict, b: dict) -> dict:
    """AB - BA for sparse {(row, col): entry} matrices."""
    out: dict[tuple[int, int], int] = {}
    for (r, t), x in a.items():
        for (u, c), y in b.items():
            if t == u:
                out[(r, c)] = out.get((r, c), 0) + x * y
            if c == r:
                out[(u, t)] = out.get((u, t), 0) - y * x
    return out


def _sln_coords(m: dict, n: int) -> list[int]:
    """Twice the coordinates of a sparse traceless int matrix on the D/S/Q basis."""
    pairs = n * (n - 1) // 2
    coords = [0] * (n - 1 + 2 * pairs)
    for (r, c), x in m.items():
        if r == c:
            # the D coordinates are the partial sums of the diagonal
            for k in range(r, n - 1):
                coords[k] += 2 * x
            continue
        i, j = min(r, c), max(r, c)
        s = n - 1 + i * n - i * (i + 1) // 2 + (j - i - 1)
        coords[s] += x
        coords[s + pairs] += x if r < c else -x
    return coords


def sln_algebra(n: int) -> LieAlgebra:
    labels, mats = _sln_basis(n)
    dim = len(labels)
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            coords = _sln_coords(_commutator(mats[i], mats[j]), n)
            entry = {k: Fraction(c, 2) for k, c in enumerate(coords) if c}
            if entry:
                brackets[(i, j)] = entry
    return LieAlgebra(labels, brackets)


def _sln_gram_inverse(n: int) -> list[list[tuple[int, int]]]:
    """2n times the inverse of the Gram matrix Tr(e_a e_b), as sparse int rows
    [(b, entry)].  The Gram matrix is 2 on S, -2 on Q and on D the Cartan
    matrix of A_(n-1), whose inverse is min(k, l)(n - max(k, l))/n."""
    d, pairs = n - 1, n * (n - 1) // 2
    rows = [[(l, 2 * (min(k, l) + 1) * (d - max(k, l))) for l in range(d)] for k in range(d)]
    return rows + [[(a, n if a < d + pairs else -n)] for a in range(d, d + 2 * pairs)]


def sln_standard_bialgebra(n: int, eta=1) -> LieBialgebra:
    """Standard bialgebra on sl(n): dual bracket from the triangular R-map,
    transferred to dual-basis coordinates through the trace pairing and
    scaled by eta.  It runs on ints: the dual basis matrices are scaled by
    2n, so the bracket [RA, B] + [A, RB], bilinear in them, is (2n)^2 times."""
    unit = frac(eta) / (4 * n * n)
    g = sln_algebra(n)
    labels, mats = _sln_basis(n)
    dim = len(labels)
    # Tr(e_k M) = sum M[c][r] e_k[r][c]: each entry (c, r) of M pairs with
    # the basis matrices that are nonzero at (r, c)
    index: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for k, m in enumerate(mats):
        for (r, c), x in m.items():
            index.setdefault((c, r), []).append((k, x))

    def trace_coords(m: dict) -> dict[int, int]:
        """{k: Tr(e_k m)} over the basis matrices e_k that pair with m."""
        out: dict[int, int] = {}
        for key, y in m.items():
            for k, x in index.get(key, ()):
                out[k] = out.get(k, 0) + x * y
        return out

    # 2n times the matrix of each dual basis covector X^a under the trace
    # pairing, and its triangular split R(M) = lower(M) - upper(M)
    covs, splits = [], []
    for row in _sln_gram_inverse(n):
        ma: dict[tuple[int, int], int] = {}
        for b, w in row:
            for key, x in mats[b].items():
                ma[key] = ma.get(key, 0) + w * x
        covs.append(ma)
        splits.append({(r, c): x if r > c else -x for (r, c), x in ma.items() if r != c})

    dual_brackets = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            res = _commutator(splits[a], covs[b])
            for key, x in _commutator(covs[a], splits[b]).items():
                res[key] = res.get(key, 0) + x
            # back to dual coordinates: component on X^k is Tr(res * e_k)
            entry = {k: unit * val for k, val in sorted(trace_coords(res).items()) if val}
            if entry:
                dual_brackets[(a, b)] = entry
    dual = LieAlgebra(g.dual_labels, dual_brackets)
    return LieBialgebra(g, delta_from_dual(g, dual))
