"""Lie bialgebras: cocommutators, dual algebras, and the double.

The cocommutator delta: g -> Lambda^2 g and the dual bracket determine each
other by transposition, <[xi, zeta]_*, X> = (delta X)(xi, zeta).  A
``CocommutatorMap`` stores only the dual, as an int table; its ``images``
are a view transposed from it on first read.  A ``LieBialgebra`` validates
on construction that delta is a 1-cocycle and that the dual satisfies the
Jacobi identity, both on the int tables.

Every coboundary structure, the standard one on sl(n) included, is built
one way: ``CocommutatorMap.from_rmatrix`` computes delta = ad r on g's int
table and keeps r, from which ``LieBialgebra.yang_baxter`` is read.

The double g (+) g* exists only as a structure-constant algebra,
``LieBialgebra.double``, read off the two int tables by ``double_algebra``;
``double_bracket`` is its bracket on vectors of the double.  Its canonical
pairing <e_i, e^i> = 1 is ad-invariant, so its Jacobiator pairs with a
fourth element as a 4-form: ``double_jacobi_check`` checks the invariance,
then decides Jacobi once per set of four basis elements, and falls back on
the full triple sweep ``LieAlgebra.jacobi_check`` only to report a violation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .exterior import ExteriorElement, is_ad_invariant, schouten_square
from .lie import LieAlgebra, Vector
from .linalg import frac, integer_row


class CocommutatorMap:
    """Linear map g -> Lambda^2 g, held once as the bracket on g* it
    transposes to, ``dual``: [e^a, e^b]_* = sum_y (delta e_y)^{ab} e^y.
    ``images`` reads delta back on the basis.  ``r`` is the r-matrix of a
    coboundary map, None for one given by its images."""

    def __init__(self, algebra: LieAlgebra, dual: LieAlgebra, r=None):
        if dual.dim != algebra.dim:
            raise ValueError("the dual must have the dimension of the algebra")
        self.algebra, self.dual, self.r = algebra, dual, r

    @classmethod
    def zero(cls, algebra: LieAlgebra) -> "CocommutatorMap":
        return cls(algebra, LieAlgebra._trusted(algebra.dual_labels, {}, 1))

    @classmethod
    def from_rmatrix(cls, algebra: LieAlgebra, r: ExteriorElement) -> "CocommutatorMap":
        """Coboundary cocommutator delta(X) = ad_X r, in one pass over r's
        terms on the int table: ad_{e_x} (e_u ^ e_v) = [e_x, e_u] ^ e_v +
        e_u ^ [e_x, e_v], so a term w e_a ^ e_b meets the bracket row of e_a
        with weight w and that of e_b with weight -w.  The dual is the
        transpose of the images, their terms sorted by key and zeros dropped,
        on ints over g's den times r's divided by the gcd of that den and
        every entry, so it is taken as built at its least den."""
        if r.dual or r.degree != 2 or r.algebra is not algebra:
            raise ValueError("r must be a degree-2 primal element over the algebra")
        rden, ints = integer_row(r.terms)
        rows = algebra.bracket_rows
        acc: list[dict] = [{} for _ in range(algebra.dim)]  # {(k, v): int} for each x
        for (a, b), w in ints.items():
            for u, v, s in ((a, b, w), (b, a, -w)):
                for x, bracket in rows[u]:
                    image = acc[x]
                    for k, c in bracket:
                        if k < v:
                            image[(k, v)] = image.get((k, v), 0) + s * c
                        elif k > v:
                            image[(v, k)] = image.get((v, k), 0) - s * c
        den = algebra.den * rden
        q = math.gcd(den, *(c for im in acc for c in im.values()))
        terms = {x: {key: c // q for key, c in sorted(im.items()) if c} for x, im in enumerate(acc)}
        dual = LieAlgebra._trusted(algebra.dual_labels, _transpose(terms), den // q)
        return cls(algebra, dual, r)

    @classmethod
    def from_images(cls, algebra: LieAlgebra, table: dict) -> "CocommutatorMap":
        """table maps basis index (or label) to {(i, j): coeff} with i < j;
        the dual's constructor rejects a key or an index off the basis."""
        images = {algebra.index(k) if isinstance(k, str) else k: t for k, t in table.items()}
        dual = _transpose(dict(sorted(images.items())))
        return cls(algebra, LieAlgebra(algebra.dual_labels, dual))

    @cached_property
    def images(self) -> tuple[ExteriorElement, ...]:
        """delta on the basis, the dual transposed, each image's terms in key order."""
        g, den = self.algebra, self.dual.den
        terms = _transpose(dict(sorted(self.dual.ints.items())))  # {y: {(a, b): c}}
        return tuple(
            ExteriorElement(g, 2, {ab: Fraction(c, den) for ab, c in t.items()}, False)
            for t in (terms.get(y, {}) for y in range(g.dim))
        )

    def is_zero(self) -> bool:
        return not self.dual.ints

    def __eq__(self, other):
        return (
            isinstance(other, CocommutatorMap)
            and self.algebra is other.algebra
            and self.dual._table == other.dual._table
        )


def cocycle_check(g: LieAlgebra, delta: CocommutatorMap) -> Optional[tuple[int, int]]:
    """First basis pair (i < j, in lexicographic order) violating
    delta([X, Y]) = ad_X(delta Y) - ad_Y(delta X), or None.  The residual is
    bilinear in the constants and delta, so it runs on the int tables of g
    and of delta's dual, read transposed: (delta e_y)^{ab} = [e^a, e^b]_*^y.
    All its terms go into one accumulator: delta([e_i, e_j]) on the pair
    (i, j), ad_{e_x}(delta e_y) with - on (x, y) if x < y, + on (y, x) if x > y.
    A delta over another algebra is refused before any work."""
    if delta.algebra is not g:
        raise ValueError("cocommutator is over a different algebra")
    table, dual, n = g.ints, delta.dual.ints, g.dim
    images = _transpose(dual)  # {y: {(a, b): (delta e_y)^{ab}}}
    # the e_a ^ e_b component of pair (i, j) is keyed ((i n + j) n + a) n + b,
    # so the least key with a nonzero sum is on the first violating pair
    acc: dict[int, int] = {}
    for (i, j), image in table.items():
        base = (i * n + j) * n * n
        for k, c in image.items():
            for (a, b), d in images.get(k, {}).items():
                acc[base + a * n + b] = acc.get(base + a * n + b, 0) + c * d
    rows = g.bracket_rows
    for (a, b), image in dual.items():
        for y, d in image.items():
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


def _transpose(table: dict) -> dict:
    """{inner: {outer: c}} from {outer: {inner: c}}, in first-seen order."""
    out: dict = {}
    for k, terms in table.items():
        for key, c in terms.items():
            out.setdefault(key, {})[k] = c
    return out


def dual_constants(delta: CocommutatorMap) -> LieAlgebra:
    """The bracket on g* transposed afresh from delta's images, on Fractions:
    [X^i, X^j]_* = sum_k (delta X_k)^{ij} X^k."""
    g = delta.algebra
    return LieAlgebra(g.dual_labels, _transpose({k: im.terms for k, im in enumerate(delta.images)}))


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
        self.dual = delta.dual
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
        return cls(g, CocommutatorMap.from_rmatrix(g, r))

    @cached_property
    def yang_baxter(self) -> Optional[str]:
        """The equation r satisfies, by its Schouten square [r, r]: "cybe" if
        it vanishes, "mcybe" if it is ad-invariant, else "other"; None when
        delta holds no r-matrix."""
        r = self.delta.r
        if r is None:
            return None
        g, square = self.g, schouten_square(self.g, r)
        return "cybe" if square.is_zero() else "mcybe" if is_ad_invariant(g, square) else "other"

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


def double_algebra(B: LieBialgebra) -> LieAlgebra:
    """The double as a structure-constant algebra on basis (e_1..e_m, e^1..e^m).

    With [e_i, e_j] = C_ij^k e_k on g and [e^a, e^b]_* = F^ab_c e^c on g*, the
    constants are read off in closed form (summing over repeated indices):

        [e_i, e_j] = C_ij^k e_k,   [e^a, e^b] = F^ab_c e^c,
        [e_i, e^a] = F^ac_i e_c - C_ic^a e^c,

    the bracket [X1+xi1, X2+xi2] = [X1,X2] + ad*_{xi1} X2 - ad*_{xi2} X1 +
    [xi1,xi2]_* + ad*_{X1} xi2 - ad*_{X2} xi1 on basis elements.  It is built
    on ints over the lcm of the denominators of g and g*, each entry scaled as
    it is written, in one pass in sorted key order: for each i the keys (i, j)
    of g, then (i, m + a); then the keys (m + a, m + b) of g*.  Each mixed
    image [e_i, e^a] has one slot, filled from g* and then g, each read in
    key order, so its indices arrive sorted.  It is taken as built.
    """
    m, g, dual = B.dim, B.g, B.dual
    den = math.lcm(g.den, dual.den)
    sg, sf = den // g.den, den // dual.den
    C, F = sorted(g.ints.items()), sorted(dual.ints.items())
    slots: list[dict[int, int]] = [{} for _ in range(m * m)]  # [e_i, e^a] at i m + a
    for (a, b), image in F:
        for i, f in image.items():
            slots[i * m + a][b] = f * sf  # F^ab_i e_b
            slots[i * m + b][a] = -f * sf  # F^ba_i e_a in [e_i, e^b]
    for (i, c), image in C:
        for a, f in image.items():
            slots[i * m + a][m + c] = -f * sg  # -C_ic^a e^c
            slots[c * m + a][m + i] = f * sg  # -C_ci^a e^i in [e_c, e^a]
    rows: list[list] = [[] for _ in range(m)]
    for key, image in C:
        rows[key[0]].append((key, image))
    brackets: dict[tuple[int, int], dict[int, int]] = {}
    for i, row in enumerate(rows):
        for key, image in row:
            brackets[key] = {k: c * sg for k, c in sorted(image.items())}
        for a, slot in enumerate(slots[i * m : i * m + m]):
            if slot:
                brackets[(i, m + a)] = slot
    for (a, b), image in F:
        brackets[(m + a, m + b)] = {m + c: f * sf for c, f in sorted(image.items())}
    return LieAlgebra._trusted(list(g.labels) + list(g.dual_labels), brackets, den)


def double_bracket(B: LieBialgebra, u: Vector, v: Vector) -> Vector:
    """The bracket of two vectors of the double, ``B.double.bracket(u, v)``."""
    return B.double.bracket(u, v)


def double_jacobi_check(B: LieBialgebra) -> Optional[tuple[int, int, int]]:
    """Jacobi identity of the double: None when it holds, else the first
    violating triple (i < j < k, in lexicographic order), exactly as
    ``B.double.jacobi_check()`` returns it.

    The double's canonical pairing <e_A, e_A'> = 1, A' the partner of A
    (e_i with e^i), is symmetric and nondegenerate.  Let T(A, B, C) =
    <[e_A, e_B], e_C> = c_AB^C'.  The pairing is ad-invariant,
    <[x, y], z> = <x, [y, z]>, exactly when T(A, B, C) = T(B, C, A); with the
    antisymmetry of the bracket, T is then totally antisymmetric.

    1. The gate, one pass over the nonzero constants c_AB^k = T(A, B, C),
       C = k': c_AB^k must equal both cyclic images T(B, C, A) and
       T(C, A, B).  A constant on the partner of A or B fails there, as
       T(B, B, A) = 0 and T(B, A, A) = -c_AB^k.  A triple p < q < r holds
       three constants, X = T(p, q, r), Y = T(p, r, q) and Z = T(q, r, p),
       and invariance is X = Z = -Y.  The images of each one are the other
       two, up to sign, so one nonzero constant forces all three equations,
       and a pass with no failure proves the pairing invariant.  One image
       would not do: with X = 0 and Z = -Y != 0, the first images of Y and
       Z are each other.
    2. With an invariant pairing, the Jacobiator J(p, q, r) = [[p, q], r] +
       [[q, r], p] + [[r, p], q] pairs with s as
           K(p, q, r, s) = <[p, q], [r, s]> - <[p, r], [q, s]> + <[p, s], [q, r]>,
       antisymmetric in (r, s) and, as J is, in (p, q, r): K is a 4-form, so
       it is 0 when two indices agree.  The s' component of J(p, q, r) is
       K(p, q, r, s), so Jacobi holds exactly when K is 0 on every 4-set
       p < q < r < s.  As <[e_A, e_B], [e_C, e_D]> = sum_k c_AB^k c_CD^k',
       each entry with component k < m meets each entry with component
       k' = k + m (every k and k' pair once), and two entries with disjoint
       indices add c d to their 4-set: with sign - when their index pairs
       interleave (the {pr}{qs} split), + otherwise.
    3. None when the gate holds and every 4-set sums to 0; otherwise the full
       sweep decides and reports.

    It runs on the double's ``ints`` (K is den^2 times the exact sum), makes
    no Fraction and does not build the double's ``bracket_rows``.
    """
    D = B.double
    return None if _four_form_vanishes(D.ints, B.dim) else D.jacobi_check()


def _four_form_vanishes(table: dict, m: int) -> bool:
    """Steps 1 and 2 of ``double_jacobi_check`` on the double's int table,
    partners A and A + m: False when the gate fails or a 4-set sums to
    nonzero.  A 4-set is keyed by the bitmask of its indices."""
    n, empty = 2 * m, {}

    def pairing(a, b, c):  # T(a, b, c) = <[e_a, e_b], e_c>
        if a < b:
            return table.get((a, b), empty).get((c + m) % n, 0)
        return -table.get((b, a), empty).get((c + m) % n, 0)

    entries: list[list] = [[] for _ in range(n)]  # (a, b, c, mask of a and b) per component
    for (a, b), image in table.items():
        mask = (1 << a) | (1 << b)
        for k, c in image.items():
            z = (k + m) % n
            if pairing(b, z, a) != c or pairing(z, a, b) != c:
                return False
            entries[k].append((a, b, c, mask))
    acc: dict[int, int] = {}
    for k in range(m):
        partners = entries[k + m]
        for a, b, c, mask in entries[k]:
            for x, y, d, other in partners:
                if mask & other:
                    continue
                key = mask | other
                acc[key] = acc.get(key, 0) + (-c * d if (a < x < b) != (a < y < b) else c * d)
    return not any(acc.values())


# ---------------------------------------------------------------------------
# sl(n, R) with its standard bialgebra structure, the coboundary of the
# r-matrix sum_{i<j} E_ij ^ E_ji.
# ---------------------------------------------------------------------------


def _sln_basis(n: int) -> tuple[list[str], list[dict[tuple[int, int], int]]]:
    """Labels and sparse {(row, col): +-1} matrices for the split basis of
    sl(n): traceless diagonals D_k, symmetric S_ij and antisymmetric Q_ij
    off-diagonal pairs."""
    if type(n) is not int or n < 2:
        raise ValueError(f"n must be an int >= 2, got {n!r}")
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
    dense = [[[Fraction(m.get((r, c), 0)) for c in range(n)] for r in range(n)] for m in sparse]
    return labels, dense


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


def _sln_coords(m: dict, n: int) -> dict[int, int]:
    """The coordinates of a sparse traceless int matrix on the D/S/Q basis,
    as {index: coordinate} over the nonzero ones in index order; they are
    summed doubled, and halve to ints on a commutator of basis matrices."""
    pairs = n * (n - 1) // 2
    coords: dict[int, int] = {}
    for (r, c), x in m.items():
        if r == c:
            # the D coordinates are the partial sums of the diagonal
            for k in range(r, n - 1):
                coords[k] = coords.get(k, 0) + 2 * x
            continue
        i, j = min(r, c), max(r, c)
        s = n - 1 + i * n - i * (i + 1) // 2 + (j - i - 1)
        coords[s] = coords.get(s, 0) + x
        coords[s + pairs] = coords.get(s + pairs, 0) + (x if r < c else -x)
    return {k: x // 2 for k, x in sorted(coords.items()) if x}


def sln_algebra(n: int) -> LieAlgebra:
    """sl(n) on the D/S/Q basis: nonzero ints over the denominator 1, taken as built."""
    labels, mats = _sln_basis(n)
    dim = len(labels)
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            entry = _sln_coords(_commutator(mats[i], mats[j]), n)
            if entry:
                brackets[(i, j)] = entry
    return LieAlgebra._trusted(labels, brackets, 1)


def sln_standard_bialgebra(n: int, eta=1) -> LieBialgebra:
    """Standard bialgebra on sl(n): the coboundary of eta sum_{i<j} E_ij ^ E_ji
    = -eta/2 sum_{i<j} S_ij ^ Q_ij, whose dual bracket is the triangular
    R-map's [RA, B] + [A, RB] under the trace pairing.  eta must be nonzero."""
    g, d, pairs, eta = sln_algebra(n), n - 1, n * (n - 1) // 2, frac(eta)
    if eta == 0:
        raise ValueError("eta must be nonzero")
    r = ExteriorElement(g, 2, {(d + p, d + pairs + p): -eta / 2 for p in range(pairs)}, False)
    return LieBialgebra.from_rmatrix(g, r)
