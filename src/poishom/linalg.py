"""Exact linear algebra over the rationals.

Everything in this package that must decide a yes/no question (rank,
membership, feasibility) goes through these routines, so every verdict is
exact: matrices are lists of lists of ``Fraction`` and elimination never
leaves the rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction

Row = list[Fraction]
Matrix = list[Row]


def frac(x) -> Fraction:
    """Coerce ints, strings like '1/3' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def integer_table(table: dict) -> tuple[int, dict]:
    """``(s, scaled)`` for a sparse {key: {k: coefficient}} table: s is the
    lcm of its denominators (1 for an empty table) and ``scaled`` is the
    table times s, with int entries, in the same order.

    An identity that is homogeneous of degree d in the table (the Jacobiator
    is quadratic in structure constants or in a Poisson bracket table, the
    cocycle residual bilinear in the constants and the cocommutator) is s^d
    times its value on the original, so it vanishes exactly where the
    original does and its zero tests can run on ints in place of Fractions."""
    scale = math.lcm(*{c.denominator for image in table.values() for c in image.values()})
    return scale, {
        key: {k: c.numerator * (scale // c.denominator) for k, c in image.items()}
        for key, image in table.items()
    }


def integer_row(row: dict) -> tuple[int, dict]:
    """``(s, scaled)`` for a sparse {index: Fraction} row: s is the lcm of its
    denominators (1 for no entries) and ``scaled`` the row times s, as ints."""
    scale = math.lcm(*{c.denominator for c in row.values()})
    return scale, {k: c.numerator * (scale // c.denominator) for k, c in row.items()}


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
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


def rank(mat: Matrix) -> int:
    return len(rref(mat)[1])


def nullspace(mat: Matrix) -> list[Row]:
    """Basis of the right null space {v : mat @ v = 0}."""
    return solve_affine(mat, [Fraction(0)] * len(mat))[1]


def solve(mat: Matrix, rhs: Row) -> Row | None:
    """One solution of mat @ x = rhs (free variables set to 0), or None."""
    return solve_affine(mat, rhs)[0]


def solve_affine(mat: Matrix, rhs: Row) -> tuple[Row | None, list[Row]]:
    """Full solution set of mat @ x = rhs: (one solution with the free
    variables set to 0, or None; null space basis), both read off one
    ``rref`` of [mat | rhs]."""
    if not mat:
        return ([] if not any(rhs) else None), []
    cols = len(mat[0])
    red, pivots = rref([row[:] + [b] for row, b in zip(mat, rhs)])
    return read_solution(red, pivots, cols)


def read_solution(red: Matrix, pivots: list[int], cols: int) -> tuple[Row | None, list[Row]]:
    """``solve_affine``'s answer read off the reduced row echelon form
    (red, pivots) of an augmented [mat | rhs] with ``cols`` unknowns.  It
    reads only the pivot rows, and the reduced form depends only on the row
    space, so any stack of rows with the same span gives the same answer."""
    if cols in pivots:  # pivot in the rhs column: inconsistent
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


def invert(mat: Matrix) -> Matrix:
    n = len(mat)
    aug = [row[:] + ident_row for row, ident_row in zip(mat, identity(n))]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def det(mat: Matrix) -> Fraction:
    n = len(mat)
    m = [row[:] for row in mat]
    d = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            d = -d
        d *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return d


def in_span(vectors: list[Row], v: Row) -> bool:
    """Is v in the rational span of ``vectors``?"""
    if not vectors:
        return not any(v)
    base = [list(w) for w in vectors]
    return rank(base) == rank(base + [list(v)])


class RowSpan:
    """The span of independent rows, eliminated once.

    One ``rref`` of ``[rows | I]`` gives the reduced rows R and the transform
    T with T @ rows = R.  A vector v is in the span exactly when it equals
    sum_r v[p_r] R_r, p_r being the pivot columns, and its coefficients on
    the original rows are then sum_r v[p_r] T_r.  Vectors are passed sparse,
    as {column: value} maps, so a test costs in proportion to their support.
    Membership runs on ints: ``scaled`` holds S R_r off its pivot, S being
    ``scale``, and v is in the span when S v - sum_r v[p_r] S R_r vanishes.
    """

    def __init__(self, rows: Matrix):
        n = len(rows)
        cols = len(rows[0]) if rows else 0
        red, pivots = rref([list(row) + e for row, e in zip(rows, identity(n))])
        if pivots and pivots[-1] >= cols:
            raise ValueError("rows are linearly dependent")
        # per pivot column p_r: the nonzero entries of R_r off the pivot, and T_r
        self.reduced = {
            p: [(c, x) for c, x in enumerate(row[:cols]) if x and c != p]
            for p, row in zip(pivots, red)
        }
        self.transform = {
            p: [(s, x) for s, x in enumerate(row[cols:]) if x] for p, row in zip(pivots, red)
        }
        self.dim = n
        self._scale()

    def _scale(self):
        self.scale, self.scaled = integer_table({p: dict(t) for p, t in self.reduced.items()})

    @classmethod
    def direct_sum(cls, first: "RowSpan", second: "RowSpan", shift: int) -> "RowSpan":
        """``RowSpan`` of first's rows padded on the right and second's padded
        on the left (``shift`` = first's column count), with no elimination:
        the stack is block diagonal, so its reduced rows and transform are
        first's next to second's, moved by ``shift`` columns and first.dim rows."""
        out = cls.__new__(cls)
        out.reduced = dict(first.reduced)
        out.transform = dict(first.transform)
        for p, terms in second.reduced.items():
            out.reduced[p + shift] = [(c + shift, x) for c, x in terms]
            out.transform[p + shift] = [(s + first.dim, x) for s, x in second.transform[p]]
        out.dim = first.dim + second.dim
        out._scale()
        return out

    def contains(self, v: dict) -> bool:
        """Is the sparse v (int or Fraction values) in the span?"""
        rest: dict = {}
        for k, x in v.items():
            terms = self.scaled.get(k)
            if terms is None:
                rest[k] = rest.get(k, 0) + self.scale * x
            elif x:
                for c, y in terms.items():
                    rest[c] = rest.get(c, 0) - x * y
        return not any(rest.values())

    def lift(self, values: Row) -> dict[int, Fraction]:
        """The x supported on the pivot columns with row_s . x = values[s] for
        every original row s, as {column: value}."""
        return {
            p: sum((values[s] * y for s, y in terms), Fraction(0))
            for p, terms in self.transform.items()
        }

    def coordinates(self, v: dict[int, Fraction]) -> Row | None:
        """The coefficients of v on the original rows, or None when v is
        outside their span."""
        if not self.contains(v):
            return None
        out = [Fraction(0)] * self.dim
        for k, x in v.items():
            if x and k in self.transform:
                for s, y in self.transform[k]:
                    out[s] += x * y
        return out
