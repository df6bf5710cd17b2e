"""Finite-dimensional Lie algebras over Q, given by structure constants.

A ``LieAlgebra`` stores a sparse table C with [e_i, e_j] = sum_k C[i][j][k] e_k
for i < j; the (j, i) entries are implied by antisymmetry, so antisymmetry
holds by construction.  Vectors and covectors are exact rational coefficient
tuples tagged with the space they live in, and every operation is a pure
function on immutable data.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import linalg
from .linalg import frac, integer_table


class Vector:
    """Element of the algebra, as coefficients over the basis."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: "LieAlgebra", coords: Iterable):
        self.algebra = algebra
        self.coords = tuple(frac(c) for c in coords)
        if len(self.coords) != algebra.dim:
            raise ValueError("coordinate length does not match algebra dimension")

    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        return type(self)(self.algebra, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        return type(self)(self.algebra, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "Vector":
        return type(self)(self.algebra, [-a for a in self.coords])

    def __rmul__(self, c) -> "Vector":
        c = frac(c)
        return type(self)(self.algebra, [c * a for a in self.coords])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.algebra is other.algebra
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((id(self.algebra), self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _check(self, other):
        if self.algebra is not other.algebra or type(self) is not type(other):
            raise ValueError("operands live in different spaces")

    def __repr__(self):
        labels = self.algebra.labels
        terms = [
            f"{c} {labels[i]}" for i, c in enumerate(self.coords) if c
        ]
        return " + ".join(terms) if terms else "0"


class Covector(Vector):
    """Element of the dual space; pairs against Vectors."""

    __slots__ = ()

    def __call__(self, v: Vector) -> Fraction:
        if not isinstance(v, Vector) or isinstance(v, Covector):
            raise TypeError("covectors pair against vectors")
        if v.algebra is not self.algebra:
            raise ValueError("vector belongs to a different algebra")
        return sum((a * b for a, b in zip(self.coords, v.coords) if a and b), Fraction(0))

    def __repr__(self):
        labels = self.algebra.dual_labels
        terms = [f"{c} {labels[i]}" for i, c in enumerate(self.coords) if c]
        return " + ".join(terms) if terms else "0"


def _dual_label(label: str) -> str:
    head = label.rstrip("0123456789+-")
    tail = label[len(head):]
    return f"{head}^{tail}" if tail else f"{label}^"


def sparse(coords: Iterable) -> dict[int, Fraction]:
    """The nonzero coordinates as {index: coefficient}."""
    return {i: c for i, c in enumerate(coords) if c}


def bracket_terms(table: dict, u: dict, v: dict) -> dict[int, Fraction]:
    """[u, v] as {k: coefficient}, for u and v given as sparse
    {index: coefficient} maps and a structure-constant table keyed by i < j."""
    out: dict[int, Fraction] = {}
    for i, a in u.items():
        for j, b in v.items():
            image = table.get((i, j) if i < j else (j, i))  # (i, i) is never a key
            if image:
                s = a * b if i < j else -(a * b)
                for k, c in image.items():
                    out[k] = out.get(k, 0) + s * c
    return out


class LieAlgebra:
    """Lie algebra with rational structure constants on a labeled basis."""

    def __init__(self, labels: Sequence[str], brackets: dict):
        """brackets maps (i, j) with i < j to {k: coefficient} for [e_i, e_j]."""
        self.labels = tuple(labels)
        self.dual_labels = tuple(_dual_label(l) for l in labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate basis labels")
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), image in brackets.items():
            if not (0 <= i < j < len(self.labels)):
                raise ValueError(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
            cleaned = {k: c for k, c in zip(image, map(frac, image.values())) if c}
            if cleaned:
                table[(i, j)] = cleaned
        self._table = table

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def basis_vector(self, i) -> Vector:
        if isinstance(i, str):
            i = self.index(i)
        coords = [Fraction(0)] * self.dim
        coords[i] = Fraction(1)
        return Vector(self, coords)

    def basis_covector(self, i) -> Covector:
        if isinstance(i, str):
            i = self.index(i)
        coords = [Fraction(0)] * self.dim
        coords[i] = Fraction(1)
        return Covector(self, coords)

    def vector(self, coords) -> Vector:
        return Vector(self, coords)

    def covector(self, coords) -> Covector:
        return Covector(self, coords)

    def zero_vector(self) -> Vector:
        return Vector(self, [0] * self.dim)

    def zero_covector(self) -> Covector:
        return Covector(self, [0] * self.dim)

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        """[e_i, e_j] as a sparse {k: coefficient} map."""
        if i == j:
            return {}
        if i < j:
            return dict(self._table.get((i, j), {}))
        return {k: -c for k, c in self._table.get((j, i), {}).items()}

    def bracket(self, u: Vector, v: Vector) -> Vector:
        if u.algebra is not self or v.algebra is not self:
            raise ValueError("vectors belong to a different algebra")
        out = [Fraction(0)] * self.dim
        for k, c in bracket_terms(self._table, sparse(u.coords), sparse(v.coords)).items():
            out[k] = c
        return Vector(self, out)

    def full_table(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        """[e_i, e_j] for every ordered pair (i, j) with a nonzero bracket."""
        full = {}
        for (i, j), image in self._table.items():
            full[(i, j)] = image
            full[(j, i)] = {k: -c for k, c in image.items()}
        return full

    def jacobi_check(self) -> Optional[tuple[int, int, int]]:
        """None if the Jacobi identity holds; else the first violating triple
        (i < j < k, in lexicographic order).  It runs on the integer-scaled
        table (the Jacobiator is quadratic in the constants) and visits only
        nonzero terms: [[e_a, e_b], e_c] with a < b and c != a, b is a cyclic
        term of the sorted triple, with sign - when a < c < b."""
        _, table = integer_table(self._table)
        n = self.dim
        rows: list[list] = [[] for _ in range(n)]  # (c, [e_l, e_c]) for each l
        for (i, j), image in table.items():
            rows[i].append((j, list(image.items())))
            rows[j].append((i, [(k, -y) for k, y in image.items()]))
        # the e_p component of triple (i, j, k) is keyed ((i n + j) n + k) n + p,
        # so the least key with a nonzero sum is on the first violating triple
        acc: dict[int, int] = {}
        for (a, b), image in table.items():
            for l, x in image.items():
                for c, terms in rows[l]:
                    if c == a or c == b:
                        continue
                    i, j, k, s = (a, b, c, x) if c > b else (c, a, b, x) if c < a else (a, c, b, -x)
                    key = ((i * n + j) * n + k) * n
                    for p, y in terms:
                        acc[key + p] = acc.get(key + p, 0) + s * y
        first = min((key for key, v in acc.items() if v), default=None)
        return None if first is None else (first // n**3, first // n**2 % n, first // n % n)

    def modular_character(self) -> Covector:
        """chi(e_a) = tr(ad_{e_a}) = sum_b C_ab^b; zero exactly when the
        algebra is unimodular.  One pass over the table: C_ij^j counts for
        e_i and C_ji^i = -C_ij^i for e_j."""
        vals = [Fraction(0)] * self.dim
        for (i, j), image in self._table.items():
            vals[i] += image.get(j, 0)
            vals[j] -= image.get(i, 0)
        return Covector(self, vals)

    def is_subalgebra(self, basis: Sequence[Vector]) -> bool:
        """True iff the span of ``basis`` is closed under the bracket."""
        return Subalgebra(self, basis, verify=False).is_closed()

    def subalgebra(self, basis: Sequence, verify: bool = True) -> "Subalgebra":
        vecs = []
        for v in basis:
            if isinstance(v, str):
                v = self.basis_vector(v)
            vecs.append(v)
        return Subalgebra(self, vecs, verify=verify)

    def annihilator(self, h: "Subalgebra") -> list[Covector]:
        """Basis of {xi in g* : xi(X) = 0 for all X in h}."""
        if h.dim == 0:
            return [self.basis_covector(i) for i in range(self.dim)]
        rows = [list(v.coords) for v in h.basis]
        return [Covector(self, v) for v in linalg.nullspace(rows)]


class Subalgebra:
    """A subalgebra of a parent algebra, given by an independent basis; ``span``
    may pass in the ``RowSpan`` of exactly these rows, already eliminated."""

    def __init__(self, parent: LieAlgebra, basis: Sequence[Vector], verify: bool = True, span=None):
        self.parent = parent
        self.basis = tuple(basis)
        try:
            # the basis eliminated once: membership and coordinates of brackets
            self.span = span or linalg.RowSpan([list(v.coords) for v in self.basis])
        except ValueError:
            raise ValueError("subalgebra basis is linearly dependent") from None
        self.verified = False
        if verify:
            if not self.is_closed():
                raise ValueError("basis does not span a subalgebra")
            self.verified = True

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _brackets(self):
        """((i, j), [b_i, b_j]) for i < j, as sparse maps in the parent basis."""
        vecs = [sparse(v.coords) for v in self.basis]
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                yield (i, j), bracket_terms(self.parent._table, vecs[i], vecs[j])

    def is_closed(self) -> bool:
        """True iff the span of the basis is closed under the parent bracket."""
        return all(self.span.contains(image) for _, image in self._brackets())

    def is_ideal(self) -> bool:
        """True iff [b, e_a] lies in the span for every basis vector b and
        every parent basis vector e_a."""
        one = Fraction(1)
        for v in self.basis:
            b = sparse(v.coords)
            for a in range(self.parent.dim):
                if not self.span.contains(bracket_terms(self.parent._table, b, {a: one})):
                    return False
        return True

    def induced_algebra(self, labels: Sequence[str] | None = None) -> LieAlgebra:
        """The abstract Lie algebra on this basis, with induced constants."""
        brackets = {}
        for (i, j), image in self._brackets():
            coeffs = self.span.coordinates(image)
            if coeffs is None:
                raise ValueError("bracket leaves the subalgebra")
            entry = {k: c for k, c in enumerate(coeffs) if c}
            if entry:
                brackets[(i, j)] = entry
        if labels is None:
            labels = [f"b{i+1}" for i in range(self.dim)]
        return LieAlgebra(labels, brackets)

    def bracket_traces(self, weights) -> tuple[Fraction, ...]:
        """sum_j b_j w_j on each basis vector b, with w_j the sum of
        r [e_j, e_c]_p over the (c, p, r) in ``weights``, read only for the j
        in the support of the basis."""
        table, empty, w = self.parent._table, {}, {}
        for j in {j for v in self.basis for j, x in enumerate(v.coords) if x}:
            w[j] = 0
            for c, p, r in weights:
                key, r = ((j, c), r) if j < c else ((c, j), -r)
                y = table.get(key, empty).get(p)
                if y:
                    w[j] += r * y
        return tuple(
            sum((x * w[j] for j, x in enumerate(v.coords) if x and w[j]), Fraction(0))
            for v in self.basis
        )

    def modular_character_values(self) -> tuple[Fraction, ...]:
        """chi_h on this basis.  In the reduced rows R_p of ``span`` (1 at
        pivot p, 0 at the other pivots) the R_p coordinate of a vector of h
        is its p entry, so tr(ad_x on h) = sum_p [x, R_p]_p."""
        reduced = self.span.reduced
        return self.bracket_traces([(c, p, r) for p in reduced for c, r in [(p, 1), *reduced[p]]])


def restrict_covector(theta: Covector, h: Subalgebra) -> tuple[Fraction, ...]:
    """Values of theta on the basis of h."""
    if theta.algebra is not h.parent:
        raise ValueError("covector and subalgebra have different parents")
    return tuple(theta(v) for v in h.basis)


def is_closed_one_form(L: LieAlgebra, theta: Covector) -> bool:
    """True iff theta kills every bracket, i.e. theta is a 1-cocycle for the
    trivial representation."""
    if theta.algebra is not L:
        raise ValueError("covector belongs to a different algebra")
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            val = Fraction(0)
            for k, c in L.bracket_basis(i, j).items():
                val += c * theta.coords[k]
            if val:
                return False
    return True
