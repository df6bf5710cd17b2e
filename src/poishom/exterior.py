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

The wedge, the differential and the adjoint action run on ints, over the
algebra's one int table (``LieAlgebra.ints`` and its ``bracket_rows``).
The Schouten square is built from the adjoint action, and theta0 is read
off the coefficients of V0 and d V0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .lie import Covector, LieAlgebra, Subalgebra, Vector, sparse
from .linalg import frac, integer_row


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


def _integer_terms(terms: dict) -> tuple[int, list[tuple[tuple[int, ...], int, int]]]:
    """``(den, [(index tuple, mask, int coefficient)])``: den is the lcm of
    the coefficients' denominators (1 for no terms), mask has bit i set for
    each index i, and each coefficient is scaled by den, in the terms' order."""
    den, ints = integer_row(terms)
    return den, [(idx, sum(1 << i for i in idx), c) for idx, c in ints.items()]


def _from_masks(L: LieAlgebra, degree: int, acc: dict, den: int, dual: bool):
    """The element with terms ``Fraction(v, den)`` on the index tuple of each
    mask of ``acc`` whose int sum v is nonzero."""
    terms = {
        tuple(i for i in range(L.dim) if mask >> i & 1): Fraction(v, den)
        for mask, v in acc.items()
        if v
    }
    return ExteriorElement(L, degree, terms, dual)


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
        sa, left = _integer_terms(self.terms)
        sb, right = _integer_terms(other.terms)
        # #{x in I : x > y} is the popcount of I's mask shifted right by y + 1
        right = [(mb, [y + 1 for y in ib], cb) for ib, mb, cb in right]
        acc: dict[int, int] = {}
        for _, ma, ca in left:
            for mb, shifts, cb in right:
                if ma & mb:
                    continue
                v = ca * cb
                if sum([(ma >> s).bit_count() for s in shifts]) & 1:
                    v = -v
                key = ma | mb
                acc[key] = acc.get(key, 0) + v
        return _from_masks(self.algebra, deg, acc, sa * sb, self.dual)

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


def ce_differential(L: LieAlgebra, omega: ExteriorElement) -> ExteriorElement:
    """Differential of the algebra on forms: the degree +1 derivation that
    replaces the factor X^a in slot r of each term by (-1)^r d X^a, with
    d X^a = -sum_{i<j} C_ij^a X^i ^ X^j read off the sparse bracket table.

    Runs on ints: the algebra's ``ints`` over its ``den``, the form scaled
    by the lcm of its own denominators, and terms keyed by index bitmasks.  With
    ``rest`` the term's indices without a, the slot is r = #{rest < a}, and
    putting X^i ^ X^j (i < j) into place in rest costs the sign
    (-1)^(#{rest < i} + #{rest < j}) = (-1)^#{rest between i and j}."""
    if not omega.dual:
        raise ValueError("the differential acts on dual elements")
    if omega.algebra is not L:
        raise ValueError("element over a different algebra")
    if omega.degree == L.dim:
        # d of a top form vanishes; keep it representable at top degree
        return ExteriorElement.zero(L, L.dim, True)
    d_basis: dict[int, list] = {}
    for (i, j), image in L.ints.items():
        pair, between = (1 << i) | (1 << j), (1 << j) - (2 << i)
        for a, c in image.items():
            d_basis.setdefault(a, []).append((pair, between, c))
    den, terms = _integer_terms(omega.terms)
    acc: dict[int, int] = {}
    for idx, mask, c in terms:
        for r, a in enumerate(idx):
            rest = mask ^ (1 << a)
            slot = c if r % 2 else -c  # (-1)^r times the leading minus of d X^a
            for pair, between, cij in d_basis.get(a, ()):
                if rest & pair:
                    continue
                v = slot * cij
                if (rest & between).bit_count() & 1:
                    v = -v
                key = rest | pair
                acc[key] = acc.get(key, 0) + v
    return _from_masks(L, omega.degree + 1, acc, L.den * den, True)


def ad_extension(L: LieAlgebra, x: Vector, p: ExteriorElement) -> ExteriorElement:
    """Adjoint action extended to multivectors as a derivation: the factor
    e_i of each term becomes [x, e_i] = sum_s x_s [e_s, e_i], read off
    ``bracket_rows`` on ints.  Putting e_k in e_i's place costs the sign
    (-1)^#{rest between i and k}, rest being the term's other indices."""
    if p.dual:
        raise ValueError("the extended adjoint action acts on primal elements")
    if x.algebra is not L or p.algebra is not L:
        raise ValueError("mismatched algebra")
    xden, xs = integer_row(sparse(x.coords))
    den, terms = _integer_terms(p.terms)
    rows = L.bracket_rows
    acc: dict[int, int] = {}
    for idx, mask, c in terms:
        for i in idx:
            rest = mask ^ (1 << i)
            for s, bracket in rows[i]:
                if s not in xs:
                    continue
                v = xs[s] * c
                for k, ck in bracket:
                    if rest >> k & 1:
                        continue
                    w = v * ck
                    if (rest & ((1 << max(i, k)) - (1 << min(i, k)))).bit_count() & 1:
                        w = -w
                    acc[rest | 1 << k] = acc.get(rest | 1 << k, 0) + w
    return _from_masks(L, p.degree, acc, L.den * xden * den, False)


def schouten_square(L: LieAlgebra, r: ExteriorElement) -> ExteriorElement:
    """[r, r] in Lambda^3 g for r in Lambda^2 g: the sum over r's terms
    c e_a ^ e_b of c (e_a ^ ad_{e_b} r - e_b ^ ad_{e_a} r), which expands to
    [a^b, c^d] = [a,c]^b^d - [a,d]^b^c - [b,c]^a^d + [b,d]^a^c summed over
    pairs of terms.  Only vanishing and ad-invariance of the result are
    consumed downstream, so the overall normalization is immaterial.
    """
    if r.dual or r.degree != 2:
        raise ValueError("expected a degree-2 primal element")
    ad = {i: ad_extension(L, L.basis_vector(i), r) for idx in r.terms for i in idx}
    out = ExteriorElement.zero(L, 3, False)
    for (a, b), c in r.terms.items():
        ea, eb = ExteriorElement.basis(L, (a,), False), ExteriorElement.basis(L, (b,), False)
        out = out + c * (ea.wedge(ad[b]) - eb.wedge(ad[a]))
    return out


def is_ad_invariant(L: LieAlgebra, p: ExteriorElement) -> bool:
    return all(ad_extension(L, L.basis_vector(i), p).is_zero() for i in range(L.dim))


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
    the annihilator of h, read off the coefficients of v0 and d v0.

    With P the pivot columns of ``h.span`` and F its free columns, the basis
    dual to (e^p for p in P, then ann(h)) is (R_p, then e_f), R_p the
    reduced rows.  On it theta0 = -sum_p (d v0)(R_p, e_F) / v0(e_F) e^p, and
    R_p meets e_F only at p, so (d v0)(R_p, e_F) = (-1)^#{f < p} (d v0)[p u F]
    and v0(e_F) = v0[F].  For h = g, v0 is a scalar and theta0 = 0.  The
    defining identity is re-checked exactly before returning.
    """
    if not v0.dual:
        raise ValueError("v0 must be a dual element")
    if v0.is_zero():
        raise ValueError("v0 must be nonzero")
    m, n = L.dim, h.dim
    if v0.degree != m - n:
        raise ValueError("v0 must have degree dim(g) - dim(h)")
    if v0.degree and any(not interior(x, v0).is_zero() for x in h.basis):
        raise ValueError("v0 is not annihilated by the subalgebra")
    # annihilated by h, v0 is a nonzero multiple of ann(h)'s top wedge, and
    # the ann(h) rows are S e^f plus pivot terms, so v0[F] is not 0
    free = tuple(f for f in range(m) if f not in h.span.scaled)
    scale, dv0 = v0.terms[free], ce_differential(L, v0)
    coords = [Fraction(0)] * m
    for p in h.span.scaled:
        below = sum(f < p for f in free)
        c = dv0.terms.get(tuple(sorted(free + (p,))), 0)
        coords[p] = (c if below % 2 else -c) / scale
    theta = Covector(L, coords)
    if dv0 != -1 * ExteriorElement.from_vector(theta).wedge(v0):
        raise AssertionError("construction failed to satisfy d v0 = -theta0 ^ v0")
    return theta
