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
from .linalg import frac


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
        return sum((a * b for a, b in zip(self.coords, v.coords)), Fraction(0))

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
            if i < j:
                image = table.get((i, j))
                if image:
                    s = a * b
                    for k, c in image.items():
                        out[k] = out.get(k, 0) + s * c
            elif i > j:
                image = table.get((j, i))
                if image:
                    s = -(a * b)
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
            cleaned = {k: frac(c) for k, c in image.items() if frac(c)}
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

    def structure_constant(self, i: int, j: int, k: int) -> Fraction:
        if i == j:
            return Fraction(0)
        if i < j:
            return self._table.get((i, j), {}).get(k, Fraction(0))
        return -self._table.get((j, i), {}).get(k, Fraction(0))

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
        (i < j < k, in lexicographic order)."""
        full = self.full_table()
        empty: dict[int, Fraction] = {}
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
                    acc: dict[int, Fraction] = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for l, x in full.get((a, b), empty).items():
                            for p, y in full.get((l, c), empty).items():
                                acc[p] = acc.get(p, 0) + x * y
                    if any(acc.values()):
                        return (i, j, k)
        return None

    def adjoint_matrix(self, x: Vector) -> linalg.Matrix:
        """Matrix of ad_x; column j holds [x, e_j] in basis coordinates."""
        cols = [self.bracket(x, self.basis_vector(j)).coords for j in range(self.dim)]
        return [[cols[j][k] for j in range(self.dim)] for k in range(self.dim)]

    def modular_character(self) -> Covector:
        """chi(e_a) = tr(ad_{e_a}); zero exactly when the algebra is unimodular."""
        vals = []
        for a in range(self.dim):
            t = Fraction(0)
            for b in range(self.dim):
                t += self.structure_constant(a, b, b)
            vals.append(t)
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
    """A subalgebra of a parent algebra, given by an independent basis."""

    def __init__(self, parent: LieAlgebra, basis: Sequence[Vector], verify: bool = True):
        self.parent = parent
        self.basis = tuple(basis)
        try:
            # the basis eliminated once: membership and coordinates of brackets
            self.span = linalg.RowSpan([list(v.coords) for v in self.basis])
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

    def modular_character_values(self) -> tuple[Fraction, ...]:
        """chi_h evaluated on this basis (via the induced structure constants)."""
        if self.dim == 0:
            return ()
        return self.induced_algebra().modular_character().coords


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
