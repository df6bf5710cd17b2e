"""Finite-dimensional Lie algebras over Q, given by structure constants.

A ``LieAlgebra`` stores a sparse table C with [e_i, e_j] = sum_k C[i][j][k] e_k
for i < j; the (j, i) entries are implied by antisymmetry, so antisymmetry
holds by construction.  C is held once as ints over one positive ``den``,
and every check and trace reads those ints; ``_table`` is C on Fractions.
The constructor validates a rational table from outside the package; an
int table the package builds is taken as built by ``_trusted``.
Vectors and covectors are exact rational coefficient tuples tagged with the
space they live in, and every operation is a pure function on immutable data.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import linalg
from .linalg import frac, integer_row, integer_table


class cached_attribute:
    """A lazily computed attribute: the first read on an instance calls
    ``func`` and stores the value in the instance's ``__dict__`` under the
    attribute's name, where later reads find it before the descriptor.  On
    the class it returns itself, with ``func`` and ``__doc__``.  It is
    ``functools.cached_property`` without the ``RLock`` that Python 3.11
    takes on every first read (3.12 removed it); the package starts no
    threads."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


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
        same = isinstance(other, type(self)) and self.algebra is other.algebra
        return same and self.coords == other.coords

    def __hash__(self):
        return hash((id(self.algebra), self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _check(self, other):
        if self.algebra is not other.algebra or type(self) is not type(other):
            raise ValueError("operands live in different spaces")

    def __repr__(self):
        labels = self.algebra.dual_labels if isinstance(self, Covector) else self.algebra.labels
        terms = [f"{c} {labels[i]}" for i, c in enumerate(self.coords) if c]
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


def _dual_label(label: str) -> str:
    head = label.rstrip("0123456789+-")
    tail = label[len(head):]
    return f"{head}^{tail}" if tail else f"{label}^"


def sparse(coords: Iterable) -> dict[int, Fraction]:
    """The nonzero coordinates as {index: coefficient}."""
    return {i: c for i, c in enumerate(coords) if c}


def bracket_terms(table: dict, u: dict, v: dict) -> dict:
    """[u, v] as {k: coefficient}, for u and v given as sparse
    {index: coefficient} maps and a structure-constant table keyed by i < j;
    on int tables and int maps it stays on ints."""
    out: dict = {}
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
        """brackets maps (i, j) with i < j to {k: rational} for [e_i, e_j].  A
        key that is not a pair of ints, an index that is not an int and a key
        or index off the basis are ValueErrors; zero entries are dropped."""
        self._set_labels(labels)
        table: dict[tuple[int, int], dict] = {}
        n = len(self.labels)
        for key, image in brackets.items():
            if not (type(key) is tuple and len(key) == 2 and all(type(i) is int for i in key)):
                raise ValueError(f"bracket key {key!r} must be a pair of ints")
            i, j = key
            if not (0 <= i < j < n):
                raise ValueError(f"bracket key ({i},{j}) must satisfy 0 <= i < j < {n}")
            for k in image:
                if type(k) is not int:
                    raise ValueError(f"bracket ({i},{j}) has a term on index {k!r}, not an int")
            if image and (min(image) < 0 or max(image) >= n):
                k = min(image) if min(image) < 0 else max(image)
                raise ValueError(f"bracket ({i},{j}) has a term on index {k}, outside 0..{n - 1}")
            cleaned = {k: c for k, c in zip(image, map(frac, image.values())) if c}
            if cleaned:
                table[(i, j)] = cleaned
        self._table = table
        self.den, self.ints = integer_table(table)

    @classmethod
    def _trusted(cls, labels: Sequence[str], ints: dict, den: int) -> "LieAlgebra":
        """The algebra on ``ints`` over the positive int ``den`` as built, with
        no checks: keys i < j and indices on the basis, nonzero int entries,
        and dicts that no other object holds."""
        L = cls.__new__(cls)
        L._set_labels(labels)
        L.den, L.ints = den, ints
        return L

    def _set_labels(self, labels: Sequence[str]):
        self.labels = tuple(labels)
        self.dual_labels = tuple(_dual_label(l) for l in labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate basis labels")

    @cached_attribute
    def _table(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        """The table on Fractions, in ``ints`` order; built on first read for a trusted algebra."""
        den = self.den
        return {key: {k: Fraction(c, den) for k, c in im.items()} for key, im in self.ints.items()}

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        if label not in self.labels:
            raise ValueError(f"unknown basis label {label!r} (basis: {', '.join(self.labels)})")
        return self.labels.index(label)

    def basis_vector(self, i) -> Vector:
        if isinstance(i, str):
            i = self.index(i)
        coords = [Fraction(0)] * self.dim
        coords[i] = Fraction(1)
        return Vector(self, coords)

    def basis_covector(self, i) -> Covector:
        return Covector(self, self.basis_vector(i).coords)

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
        for k, c in bracket_terms(self.ints, sparse(u.coords), sparse(v.coords)).items():
            out[k] = c / self.den
        return Vector(self, out)

    @cached_attribute
    def bracket_rows(self) -> list[list[tuple[int, list[tuple[int, int]]]]]:
        """For each basis index u, the pairs (x, [e_x, e_u]) over the x with
        a nonzero bracket, each bracket as (k, c) pairs on ``ints``, in the
        order of ``ints``.  Built once and shared: readers must not mutate it."""
        rows: list[list] = [[] for _ in range(self.dim)]
        for (i, j), image in self.ints.items():
            rows[j].append((i, list(image.items())))
            rows[i].append((j, [(k, -c) for k, c in image.items()]))
        return rows

    def jacobi_check(self) -> Optional[tuple[int, int, int]]:
        """None if the Jacobi identity holds; else the first violating triple
        (i < j < k, in lexicographic order).  It runs on ``ints`` (the
        Jacobiator is quadratic in the constants) and visits only nonzero
        terms: [e_c, [e_a, e_b]] with a < b and c != a, b is a term of the
        sorted triple's cyclic sum [e_k, [e_i, e_j]] + [e_i, [e_j, e_k]] +
        [e_j, [e_k, e_i]], with sign - when a < c < b."""
        table, n, rows = self.ints, self.dim, self.bracket_rows
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

    def modular_character_row(self) -> tuple[int, dict[int, int]]:
        """chi(e_a) = tr(ad_{e_a}) = sum_b C_ab^b as the int row (s, s chi) in
        lowest terms, as ``integer_row`` gives it.  One pass over the table:
        C_ij^j counts for e_i and C_ji^i = -C_ij^i for e_j, on ints."""
        vals = [0] * self.dim
        for (i, j), image in self.ints.items():
            vals[i] += image.get(j, 0)
            vals[j] -= image.get(i, 0)
        g = math.gcd(self.den, *vals)
        return self.den // g, {k: v // g for k, v in enumerate(vals) if v}

    def modular_character(self) -> Covector:
        """chi on Fractions; zero exactly when the algebra is unimodular."""
        s, chi = self.modular_character_row()
        return Covector(self, [Fraction(chi.get(k, 0), s) for k in range(self.dim)])

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

    def annihilator_rows(self, h: "Subalgebra") -> list[tuple[int, dict]]:
        """ann(h) = {xi in g* : xi(X) = 0 for all X in h} as int rows (s, s xi),
        read off h's span with no elimination: the null vectors of its reduced
        rows, s R_p being the int row {p: s, **scaled[p]} (s the span's scale),
        one per free column f, in order: s e^f - sum_p scaled[p][f] e^p."""
        s, scaled = h.span.scale, h.span.scaled
        return [
            (s, {f: s, **{p: -r[f] for p, r in scaled.items() if f in r}})
            for f in range(self.dim)
            if f not in scaled
        ]

    def annihilator(self, h: "Subalgebra") -> list[Covector]:
        """Basis of ann(h), on ``annihilator_rows``."""
        zero = Fraction(0)
        return [
            Covector(self, [Fraction(row[k], s) if k in row else zero for k in range(self.dim)])
            for s, row in self.annihilator_rows(h)
        ]


class Subalgebra:
    """A subalgebra of a parent algebra, given by an independent basis held
    as ``int_basis``, each b as (s, s b) with s b on ints, and eliminated once
    in ``span``, their ``RowSpan`` (``from_int_rows`` may take one built)."""

    def __init__(self, parent: LieAlgebra, basis: Sequence[Vector], verify: bool = True):
        self.basis = tuple(basis)
        self._build(parent, [integer_row(sparse(v.coords)) for v in self.basis], verify, None)

    @classmethod
    def from_int_rows(cls, parent: LieAlgebra, rows: list, verify: bool = True, span=None):
        """The subalgebra with ``int_basis`` rows; ``basis`` is made if read."""
        out = cls.__new__(cls)
        out._build(parent, rows, verify, span)
        return out

    def _build(self, parent: LieAlgebra, rows: list, verify: bool, span):
        self.parent, self.int_basis = parent, rows
        try:
            self.span = span or linalg.RowSpan(rows)
        except ValueError:
            raise ValueError("subalgebra basis is linearly dependent") from None
        if verify and not self.is_closed():
            raise ValueError("basis does not span a subalgebra")
        self.verified = verify

    @cached_attribute
    def basis(self) -> tuple[Vector, ...]:
        dim = self.parent.dim
        return tuple(
            Vector(self.parent, [Fraction(row.get(k, 0), s) for k in range(dim)])
            for s, row in self.int_basis
        )

    @property
    def dim(self) -> int:
        return len(self.int_basis)

    def _brackets(self, known: int = 0):
        """((i, j), den s_i s_j [b_i, b_j]) for i < j and known <= j, as sparse
        int maps in the parent basis, s_i b_i being the int row of b_i."""
        table, rows = self.parent.ints, [row for _, row in self.int_basis]
        for i in range(len(rows)):
            for j in range(max(i + 1, known), len(rows)):
                yield (i, j), bracket_terms(table, rows[i], rows[j])

    def is_closed(self, known: int = 0) -> bool:
        """True iff the span of the basis is closed under the parent bracket,
        given that the first ``known`` basis vectors span a subalgebra: their
        pairs are not bracketed."""
        return all(self.span.contains(image) for _, image in self._brackets(known))

    def induced_algebra(self, labels: Sequence[str] | None = None) -> LieAlgebra:
        """The abstract Lie algebra on this basis, with induced constants."""
        brackets, den, s = {}, self.parent.den, [s for s, _ in self.int_basis]
        for (i, j), image in self._brackets():
            coeffs = self.span.coordinates(image)
            if coeffs is None:
                raise ValueError("bracket leaves the subalgebra")
            entry = {k: c / (den * s[i] * s[j]) for k, c in enumerate(coeffs) if c}
            if entry:
                brackets[(i, j)] = entry
        if labels is None:
            labels = [f"b{i+1}" for i in range(self.dim)]
        return LieAlgebra(labels, brackets)

    def bracket_traces(self, weights) -> tuple[Fraction, ...]:
        """sum_j b_j w_j on each basis vector b, with w_j the sum of
        r [e_j, e_c]_p over the (c, p, r) in ``weights``, read only for the j
        in the support of the basis.  The r are ints, ``span.scale`` times the
        weights meant, and each value is divided once, at the end."""
        table, empty, w = self.parent.ints, {}, {}
        for j in {j for _, row in self.int_basis for j in row}:
            w[j] = 0
            for c, p, r in weights:
                key, r = ((j, c), r) if j < c else ((c, j), -r)
                y = table.get(key, empty).get(p)
                if y:
                    w[j] += r * y
        den = self.parent.den * self.span.scale
        return tuple(
            Fraction(sum([x * w[j] for j, x in row.items()]), s * den) for s, row in self.int_basis
        )

    def modular_character_values(self) -> tuple[Fraction, ...]:
        """chi_h on this basis.  In the reduced rows R_p of ``span`` (1 at
        pivot p, 0 at the other pivots) the R_p coordinate of a vector of h
        is its p entry, so tr(ad_x on h) = sum_p [x, R_p]_p."""
        one, scaled = self.span.scale, self.span.scaled
        weights = [(c, p, r) for p in scaled for c, r in [(p, one), *scaled[p].items()]]
        return self.bracket_traces(weights)


def restrict_covector(theta: Covector, h: Subalgebra) -> tuple[Fraction, ...]:
    """Values of theta on the basis of h."""
    if theta.algebra is not h.parent:
        raise ValueError("covector and subalgebra have different parents")
    return tuple(theta(v) for v in h.basis)


def is_closed_one_form(L: LieAlgebra, theta: Covector) -> bool:
    """True iff theta kills every bracket, i.e. theta is a 1-cocycle for the
    trivial representation: one pass over ``ints``, theta scaled to ints."""
    if theta.algebra is not L:
        raise ValueError("covector belongs to a different algebra")
    _, t = integer_row(sparse(theta.coords))
    return not any(sum([c * t.get(k, 0) for k, c in image.items()]) for image in L.ints.values())
