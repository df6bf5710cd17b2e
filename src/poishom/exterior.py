"""Graded exterior algebra over an algebra and its dual.

Elements of Lambda^k g (multivectors) and Lambda^k g* (forms) share one sparse
representation: a map from strictly increasing index tuples to rational
coefficients, tagged with the space they live in.  The two graded worlds are
kept disjoint; no operation mixes a primal with a dual element.

Sign conventions, fixed once and verified by the calibration tests:
  * wedge sign = parity of the permutation sorting the concatenated tuples;
  * interior product contracts the first slot,
    i_a(e_{i1} ^ ... ^ e_{ik}) = sum_r (-1)^(r-1) a(e_{ir}) e_{i1} ^ .. ^ e_{ik};
  * the differential is the degree +1 derivation with
    (d theta)(X, Y) = -theta([X, Y]) on degree 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import linalg
from .lie import Covector, LieAlgebra, Subalgebra, Vector
from .linalg import frac


def _sort_tuple(idx: Sequence[int]):
    """Sort an index tuple, tracking permutation parity; None on repeats."""
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None, 0
    return tuple(idx), sign


class ExteriorElement:
    """Homogeneous element of Lambda^k g (primal) or Lambda^k g* (dual)."""

    __slots__ = ("algebra", "dual", "degree", "terms")

    def __init__(self, algebra: LieAlgebra, degree: int, terms: dict, dual: bool):
        if not 0 <= degree <= algebra.dim:
            raise ValueError("degree out of range")
        self.algebra = algebra
        self.degree = degree
        self.dual = dual
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for idx, c in terms.items():
            c = frac(c)
            if not c:
                continue
            idx = tuple(idx)
            if len(idx) != degree:
                raise ValueError("index tuple has wrong length for degree")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError("index tuples must be strictly increasing")
            cleaned[idx] = c
        self.terms = cleaned

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, algebra, degree, dual):
        return cls(algebra, degree, {}, dual)

    @classmethod
    def basis(cls, algebra, indices: Sequence[int], dual: bool, coeff=1):
        idx, sign = _sort_tuple(indices)
        if idx is None:
            return cls.zero(algebra, len(indices), dual)
        return cls(algebra, len(indices), {idx: sign * frac(coeff)}, dual)

    @classmethod
    def from_vector(cls, v: Vector):
        dual = isinstance(v, Covector)
        terms = {(i,): c for i, c in enumerate(v.coords) if c}
        return cls(v.algebra, 1, terms, dual)

    # -- ring structure -----------------------------------------------------
    def _check(self, other: "ExteriorElement"):
        if self.algebra is not other.algebra:
            raise ValueError("elements over different algebras")
        if self.dual != other.dual:
            raise ValueError("cannot mix primal and dual elements")

    def __add__(self, other: "ExteriorElement") -> "ExteriorElement":
        self._check(other)
        if self.degree != other.degree:
            raise ValueError("degrees differ")
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            terms[idx] = terms.get(idx, Fraction(0)) + c
        return ExteriorElement(self.algebra, self.degree, terms, self.dual)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, c) -> "ExteriorElement":
        c = frac(c)
        return ExteriorElement(
            self.algebra, self.degree, {i: c * v for i, v in self.terms.items()}, self.dual
        )

    def wedge(self, other: "ExteriorElement") -> "ExteriorElement":
        self._check(other)
        deg = self.degree + other.degree
        if deg > self.algebra.dim:
            return ExteriorElement.zero(self.algebra, min(deg, self.algebra.dim), self.dual)
        terms: dict[tuple[int, ...], Fraction] = {}
        for ia, ca in self.terms.items():
            for ib, cb in other.terms.items():
                merged, sign = _sort_tuple(ia + ib)
                if merged is not None:
                    terms[merged] = terms.get(merged, Fraction(0)) + sign * ca * cb
        return ExteriorElement(self.algebra, deg, terms, self.dual)

    def __xor__(self, other):
        return self.wedge(other)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExteriorElement)
            and self.algebra is other.algebra
            and self.dual == other.dual
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.algebra), self.dual, self.degree, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        labels = self.algebra.dual_labels if self.dual else self.algebra.labels
        parts = []
        for idx in sorted(self.terms):
            mono = "^".join(labels[i] for i in idx) if idx else "1"
            parts.append(f"{self.terms[idx]} {mono}")
        return " + ".join(parts) if parts else "0"


def wedge(a: ExteriorElement, b: ExteriorElement) -> ExteriorElement:
    return a.wedge(b)


def interior(arg: Vector, omega: ExteriorElement) -> ExteriorElement:
    """Contraction on the first slot; covectors pair primal elements and
    vectors pair dual ones."""
    want_dual_arg = not omega.dual
    if isinstance(arg, Covector) != want_dual_arg:
        raise ValueError("argument does not pair against the element's space")
    if omega.degree == 0:
        raise ValueError("cannot contract a degree-0 element")
    terms: dict[tuple[int, ...], Fraction] = {}
    for idx, c in omega.terms.items():
        for r, i in enumerate(idx):
            a = arg.coords[i]
            if not a:
                continue
            rest = idx[:r] + idx[r + 1:]
            sign = -1 if r % 2 else 1
            terms[rest] = terms.get(rest, Fraction(0)) + sign * a * c
    return ExteriorElement(omega.algebra, omega.degree - 1, terms, omega.dual)


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


def ce_differential(L: LieAlgebra, omega: ExteriorElement) -> ExteriorElement:
    """Differential of the algebra on forms: the degree +1 derivation that
    replaces the factor X^a in slot r of each term by (-1)^r d X^a, with
    d X^a = -sum_{i<j} C_ij^a X^i ^ X^j read off the sparse bracket table."""
    if not omega.dual:
        raise ValueError("the differential acts on dual elements")
    if omega.algebra is not L:
        raise ValueError("element over a different algebra")
    if omega.degree == L.dim:
        # d of a top form vanishes; keep it representable at top degree
        return ExteriorElement.zero(L, L.dim, True)
    d_basis: dict[int, list] = {}
    for pair, image in L._table.items():
        for a, c in image.items():
            d_basis.setdefault(a, []).append((pair, c))
    terms: dict[tuple[int, ...], Fraction] = {}
    for idx, c in omega.terms.items():
        for r, a in enumerate(idx):
            slot = c if r % 2 else -c  # (-1)^r times the leading minus of d X^a
            for pair, cij in d_basis.get(a, ()):
                merged, sign = _sort_tuple(idx[:r] + pair + idx[r + 1:])
                if merged is not None:
                    terms[merged] = terms.get(merged, 0) + sign * slot * cij
    return ExteriorElement(L, omega.degree + 1, terms, True)


def ad_extension(L: LieAlgebra, x: Vector, p: ExteriorElement) -> ExteriorElement:
    """Adjoint action extended to multivectors as a derivation."""
    if p.dual:
        raise ValueError("the extended adjoint action acts on primal elements")
    if x.algebra is not L or p.algebra is not L:
        raise ValueError("mismatched algebra")
    x_items = [(s, a) for s, a in enumerate(x.coords) if a]
    return ExteriorElement(L, p.degree, ad_terms(L.full_table(), x_items, p.terms, {}), False)


def ad_terms(full: dict, x_items, terms: dict, out: dict) -> dict:
    """Accumulate the terms of ad_x p into ``out`` and return it.

    ``full`` is the algebra's ``full_table()``, x is given by its nonzero
    (index, coefficient) pairs and p by its sparse terms; the derivation
    replaces each factor e_i by [x, e_i] = sum_s x_s C_si^k e_k in place.
    """
    empty: dict[int, Fraction] = {}
    for idx, c in terms.items():
        for r, i in enumerate(idx):
            for s, xs in x_items:
                for k, ck in full.get((s, i), empty).items():
                    merged, sign = _sort_tuple(idx[:r] + (k,) + idx[r + 1:])
                    if merged is not None:
                        out[merged] = out.get(merged, 0) + sign * xs * ck * c
    return out


def schouten_square(L: LieAlgebra, r: ExteriorElement) -> ExteriorElement:
    """[r, r] in Lambda^3 g for r in Lambda^2 g, by bilinear expansion of

    [a^b, c^d] = [a,c]^b^d - [a,d]^b^c - [b,c]^a^d + [b,d]^a^c

    on the sparse bracket table.  Only vanishing and ad-invariance of the
    result are consumed downstream, so the overall normalization is immaterial.
    """
    if r.dual or r.degree != 2:
        raise ValueError("expected a degree-2 primal element")
    full = L.full_table()
    empty: dict[int, Fraction] = {}
    terms: dict[tuple[int, ...], Fraction] = {}
    items = list(r.terms.items())
    for (a, b), ca in items:
        for (c, d), cb in items:
            coeff = ca * cb
            for pair, rest, weight in (
                ((a, c), (b, d), coeff),
                ((a, d), (b, c), -coeff),
                ((b, c), (a, d), -coeff),
                ((b, d), (a, c), coeff),
            ):
                for k, ck in full.get(pair, empty).items():
                    merged, sign = _sort_tuple((k,) + rest)
                    if merged is not None:
                        terms[merged] = terms.get(merged, 0) + sign * weight * ck
    return ExteriorElement(L, 3, terms, False)


def is_ad_invariant(L: LieAlgebra, p: ExteriorElement) -> bool:
    return all(
        ad_extension(L, L.basis_vector(i), p).is_zero() for i in range(L.dim)
    )


def top_wedge(L: LieAlgebra, covectors: Sequence[Covector]) -> ExteriorElement:
    """Wedge of a list of covectors (in order)."""
    out = ExteriorElement(L, 0, {(): 1}, True)
    for xi in covectors:
        out = out.wedge(ExteriorElement.from_vector(xi))
    return out


def theta0_from_v0(
    L: LieAlgebra, h: Subalgebra, v0: ExteriorElement
) -> Covector:
    """The covector theta0 with d v0 = -theta0 ^ v0, for v0 a top element of
    the annihilator of h.

    Built by basis completion: write v0 = c Y^1 ^ ... ^ Y^(m-n) on an
    annihilator basis, complete to a basis of the dual, and read off
    theta0 = -sum_i (d v0)(X_i, Y_1, ..., Y_(m-n)) X^i on the dual basis.
    The defining identity is re-checked exactly before returning.
    """
    if not v0.dual:
        raise ValueError("v0 must be a dual element")
    if v0.is_zero():
        raise ValueError("v0 must be nonzero")
    m, n = L.dim, h.dim
    if v0.degree != m - n:
        raise ValueError("v0 must have degree dim(g) - dim(h)")
    for x in h.basis:
        if not interior(x, v0).is_zero():
            raise ValueError("v0 is not annihilated by the subalgebra")

    ann = L.annihilator(h)
    # rows of the dual-basis matrix: completion covectors first, then ann
    rows = [list(xi.coords) for xi in ann]
    completion: list[list[Fraction]] = []
    for a in range(m):
        cand = [Fraction(1 if b == a else 0) for b in range(m)]
        if linalg.rank(rows + completion + [cand]) > len(rows) + len(completion):
            completion.append(cand)
        if len(completion) == n:
            break
    dual_basis_rows = completion + rows  # X^1..X^n, Y^1..Y^(m-n)
    # dual vectors: columns of the inverse give the basis dual to these rows
    inv = linalg.invert(dual_basis_rows)
    dual_vectors = [Vector(L, [inv[r][c] for r in range(m)]) for c in range(m)]
    xs = dual_vectors[:n]  # spans h
    ys = dual_vectors[n:]

    dv0 = ce_differential(L, v0)
    coeffs = [evaluate_form(dv0, [x] + ys) for x in xs]
    # normalize by v0(Y_1..Y_{m-n}), the coefficient of v0 on this ann basis
    scale = evaluate_form(v0, ys)
    if not scale:
        raise ValueError("v0 does not span the top of the annihilator")
    theta = Covector(
        L,
        [
            -sum(
                (coeffs[i] / scale) * completion[i][a]
                for i in range(n)
            )
            for a in range(m)
        ],
    )
    lhs = dv0
    rhs = -1 * ExteriorElement.from_vector(theta).wedge(v0)
    if lhs != rhs:
        raise AssertionError("construction failed to satisfy d v0 = -theta0 ^ v0")
    return theta
