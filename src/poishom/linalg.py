"""Exact linear algebra over the rationals.

Everything in this package that must decide a yes/no question (rank,
membership, feasibility) goes through these routines, so every verdict is
exact.  Every elimination runs on sparse int rows {column: int} in
``int_rref``: a row times a positive int spans the same line, and the
reduced row echelon form depends only on the row space, so nothing is lost.
A subspace is held the same way, as the int rows of its eliminated basis
(``RowSpan``).  The dense ``Fraction`` matrices of ``rref``, ``solve`` and
``nullspace`` are adapters around the kernel: Fractions are made only when
a reduced row, a solution or a null vector is read out.
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


def _cleared(a: dict, b: dict, p: int) -> dict:
    """m a - n b with m, n coprime ints, m of the sign of b[p], so that it is
    0 at column p; zero entries dropped."""
    g = math.gcd(a[p], b[p])
    out = {c: b[p] // g * y for c, y in a.items()}
    for c, y in b.items():
        out[c] = out.get(c, 0) - a[p] // g * y
    return {c: y for c, y in out.items() if y}


def _primitive(row: dict) -> dict:
    """The nonzero int row divided by the gcd of its entries, first one positive."""
    g = math.gcd(*row.values()) * (1 if row[min(row)] > 0 else -1)
    return {c: y // g for c, y in row.items()}


def int_rref(rows: list[dict]) -> tuple[list[dict], list[int]]:
    """Gauss-Jordan elimination of sparse int rows {column: int}: (reduced
    rows, their pivot columns), sorted by pivot.  Each reduced row is its
    reduced row echelon form row times the positive int that makes its
    entries coprime, so it is positive at its pivot and 0 at every other
    pivot; zero rows are dropped.  Rows enter one at a time and stay on ints:
    a new row is cleared at the pivots it meets, and its own pivot, its first
    column, is then cleared from the rows before it.  The input rows are not
    changed."""
    reduced: dict[int, dict] = {}  # pivot column -> row
    for row in rows:
        row = {c: x for c, x in row.items() if x}
        for p in [p for p in row if p in reduced]:
            row = _cleared(row, reduced[p], p)
        if row:
            row = _primitive(row)
            p = min(row)
            for q, b in reduced.items():
                if p in b:
                    reduced[q] = _primitive(_cleared(b, row, p))
            reduced[p] = row
    pivots = sorted(reduced)
    return [reduced[p] for p in pivots], pivots


def int_rows(mat: Matrix) -> list[dict]:
    """Each row of a Fraction matrix as its sparse int multiple (``integer_row``)."""
    return [integer_row({c: x for c, x in enumerate(row) if x})[1] for row in mat]


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column list).
    ``int_rref`` eliminates, and each reduced row is divided by its pivot."""
    if not mat:
        return [], []
    cols, zero = len(mat[0]), Fraction(0)
    red = int_rref(int_rows(mat))
    out = [[Fraction(r[c], r[p]) if c in r else zero for c in range(cols)] for r, p in zip(*red)]
    return out + [[zero] * cols for _ in range(len(mat) - len(out))], red[1]


def rank(mat: Matrix) -> int:
    return len(int_rref(int_rows(mat))[1])


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
    rows = int_rows([row[:] + [b] for row, b in zip(mat, rhs)])
    return read_solution(*int_rref(rows), cols)


def read_solution(red: list[dict], pivots: list[int], cols: int) -> tuple[Row | None, list[Row]]:
    """``solve_affine``'s answer read off ``int_rref``'s (red, pivots) for an
    augmented [mat | rhs] with ``cols`` unknowns, the rhs in column ``cols``.
    The reduced form depends only on the row space, so any stack of rows
    with the same span gives the same answer; the Fractions are made here."""
    if cols in pivots:  # pivot in the rhs column: inconsistent
        return None, []
    zero = Fraction(0)
    x = [zero] * cols
    for row, p in zip(red, pivots):
        if cols in row:
            x[p] = Fraction(row[cols], row[p])
    null = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [zero] * cols
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            if f in row:
                v[p] = Fraction(-row[f], row[p])
        null.append(v)
    return x, null


def invert(mat: Matrix) -> Matrix:
    """The inverse: the transform T of the rows' ``RowSpan``, as T @ mat = R = I."""
    try:
        span = RowSpan([integer_row({c: x for c, x in enumerate(row) if x}) for row in mat])
    except ValueError:
        raise ValueError("matrix is singular") from None
    n, t = len(mat), span.transform
    return [[Fraction(t[i].get(j, 0), span.scale) for j in range(n)] for i in range(n)]


def det(mat: Matrix) -> Fraction:
    """Bareiss's elimination of the rows, each scaled to ints by an s, over prod s."""
    n, rows = len(mat), [integer_row(dict(enumerate(row))) for row in mat]
    m, sign, prev = [[r[c] for c in range(n)] for _, r in rows], 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot], sign = m[pivot], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return Fraction(sign * prev, math.prod(s for s, _ in rows))


def in_span(vectors: list[Row], v: Row) -> bool:
    """Is v in the rational span of ``vectors``?"""
    base = [list(w) for w in vectors]
    return rank(base) == rank(base + [list(v)])


class RowSpan:
    """The span of independent rows b, given as ``Subalgebra.int_basis``
    holds them, (s, s b) with s b a sparse int row, and eliminated once.

    One ``int_rref`` of the int rows [s b | s e_i] gives a positive int
    multiple of each [R_r | T_r], R being the reduced rows and T the
    transform with T @ rows = R.  With S (``scale``) the lcm of those
    multiples, ``scaled`` and ``transform`` hold S R_r off its pivot and
    S T_r on ints, keyed by the pivot column p_r.  A sparse {column: value}
    vector v is in the span exactly when S v - sum_r v[p_r] S R_r vanishes,
    and its coefficients on the rows are then sum_r v[p_r] T_r.
    """

    def __init__(self, rows: list[tuple[int, dict]]):
        cols = 1 + max((c for _, row in rows for c in row), default=-1)
        red, pivots = int_rref([{**row, cols + i: s} for i, (s, row) in enumerate(rows)])
        if pivots and pivots[-1] >= cols:
            raise ValueError("rows are linearly dependent")
        self.scale = math.lcm(*(r[p] for r, p in zip(red, pivots)))
        self.scaled, self.transform = {}, {}
        for r, p in zip(red, pivots):
            k = self.scale // r[p]
            self.scaled[p] = {c: k * x for c, x in r.items() if c < cols and c != p}
            self.transform[p] = {c - cols: k * x for c, x in r.items() if c >= cols}
        self.dim = len(rows)

    @classmethod
    def direct_sum(cls, first: "RowSpan", second: "RowSpan", shift: int) -> "RowSpan":
        """``RowSpan`` of first's rows and second's moved right by ``shift``
        columns (first's column count), with no elimination: the stack is
        block diagonal, so its reduced rows and transform are first's next to
        second's, moved by ``shift`` columns and first.dim rows.  Both spans
        must hold their rows at one scale; ValueError otherwise."""
        if first.scale != second.scale:
            raise ValueError(f"spans at scales {first.scale} and {second.scale}")
        out = cls.__new__(cls)
        out.scale, out.scaled, out.transform = first.scale, {}, {}
        for span, dc, ds in ((first, 0, 0), (second, shift, first.dim)):
            for p, terms in span.scaled.items():
                out.scaled[p + dc] = {c + dc: x for c, x in terms.items()}
                out.transform[p + dc] = {s + ds: x for s, x in span.transform[p].items()}
        out.dim = first.dim + second.dim
        return out

    @classmethod
    def reduced(cls, scale: int, rows: dict[int, dict]) -> "RowSpan":
        """``RowSpan`` of reduced rows, with no elimination: row r is {p: scale,
        **rows[p]} for the r-th key p, 0 at every other key, so ``scaled`` is
        ``rows`` and the transform is scale times the identity."""
        out = cls.__new__(cls)
        out.scale, out.scaled, out.dim = scale, rows, len(rows)
        out.transform = {p: {r: scale} for r, p in enumerate(rows)}
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
            p: sum((values[s] * y for s, y in terms.items()), Fraction(0)) / self.scale
            for p, terms in self.transform.items()
        }

    def coordinates(self, v: dict) -> Row | None:
        """The coefficients of v on the original rows, or None when v is
        outside their span."""
        if not self.contains(v):
            return None
        out = [0] * self.dim
        for k, x in v.items():
            if x and k in self.transform:
                for s, y in self.transform[k].items():
                    out[s] += x * y
        return [Fraction(x, self.scale) for x in out]
