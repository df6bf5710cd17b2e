"""Sparse multivariate polynomials with exact rational coefficients.

Terms are stored as a map from exponent tuples to ``Fraction``; no zero
coefficient is ever kept.  Polynomials over the same variable tuple form a
ring under +, -, *.  The public constructor checks and converts every term;
the ring operations and ``diff`` build their results from terms that are
already valid, in a new dict each, without that check.  A sum of many
polynomials is built in one dict (``poly_sum``, through ``accumulate``),
with the terms, and their order, of the chained ``+``.
``Polynomial.eval`` is the exact value at one rational point.

Code that evaluates a list of polynomials at many points prepares it once.
``exact_evaluator`` returns int numerators over one shared positive
denominator, so the exact checks decide zero on ints and build a
``Fraction`` only for a value they report.  It generates no code: it plans
the list once per call, each polynomial as its list of int coefficients
and factor slots, and at each point computes every distinct power once and
sums each polynomial term by term on ints.
``float_evaluator`` returns floats, for ``Polynomial.eval_float``; it
compiles the list into generated straight-line code that holds only the
arithmetic a term needs: a first power is read as the coordinate itself,
higher powers are bound once per call, a coefficient 1.0 or -1.0 is a
sign, not a factor, and a polynomial whose float coefficients repeat an
earlier one's reads that one's value.  The sums are generated from the
list's ``float_shape``, which leaves the other coefficients out, so the RK4
loop in ``coord`` inlines the same sums over coefficients it takes as
arguments.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .linalg import frac, integer_table


class Polynomial:
    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: dict | None = None):
        self.vars = tuple(variables)
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for expo, c in (terms or {}).items():
            c = frac(c)
            if not c:
                continue
            expo = tuple(expo)
            if len(expo) != len(self.vars) or not all(isinstance(e, int) and e >= 0 for e in expo):
                raise ValueError("bad exponent tuple")
            cleaned[expo] = c
        self.terms = cleaned

    @classmethod
    def _trusted(cls, variables: tuple, terms: dict) -> "Polynomial":
        """The polynomial over the tuple ``variables`` that takes ``terms``
        as is, without the public constructor's checks: every exponent a
        valid int tuple, every coefficient a nonzero Fraction, and the dict a
        new one that no other polynomial holds."""
        p = cls.__new__(cls)
        p.vars = variables
        p.terms = terms
        return p

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, variables) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, c) -> "Polynomial":
        c = frac(c)
        n = len(variables)
        return cls(variables, {(0,) * n: c} if c else {})

    @classmethod
    def variable(cls, variables, name: str) -> "Polynomial":
        i = _index(tuple(variables), name)
        expo = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {expo: 1})

    @classmethod
    def monomial(cls, variables, expo, c=1) -> "Polynomial":
        return cls(variables, {tuple(expo): c})

    # -- ring operations ----------------------------------------------------
    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.vars != self.vars:
                raise ValueError("polynomials over different variables")
            return other
        return Polynomial.constant(self.vars, other)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        return Polynomial._trusted(self.vars, accumulate(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        # self + (-other) in one pass, a cancelled key deleted as in accumulate
        terms = dict(self.terms)
        for e, c in self._coerce(other).terms.items():
            s = terms.get(e)
            if s is None:
                terms[e] = -c
            elif s == c:
                del terms[e]
            else:
                terms[e] = s - c
        return Polynomial._trusted(self.vars, terms)

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            # a scalar scales each term; no key can collide
            c = frac(other)
            terms = {e: a * c for e, a in self.terms.items()} if c else {}
            return Polynomial._trusted(self.vars, terms)
        other = self._coerce(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple([a + b for a, b in zip(e1, e2)])
                c = c1 * c2
                s = out.get(e)
                out[e] = c if s is None else s + c
        # a cancelled key keeps its place until here, as in one sum
        return Polynomial._trusted(self.vars, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Polynomial.constant(self.vars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.vars == other.vars and self.terms == other.terms
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.terms == Polynomial.constant(self.vars, other).terms

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    # -- calculus and evaluation --------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def diff(self, var: str) -> "Polynomial":
        return Polynomial._trusted(self.vars, diff_terms(self.terms, _index(self.vars, var)))

    def _check_point(self, point: Sequence) -> None:
        if len(point) != len(self.vars):
            raise ValueError(
                f"point has {len(point)} coordinates, the polynomial {len(self.vars)} variables"
            )

    def eval(self, point: Sequence) -> Fraction:
        """Exact evaluation at a rational point with one coordinate per
        variable."""
        self._check_point(point)
        return eval_terms(self.terms, [frac(p) for p in point])

    def eval_float(self, point: Sequence[float]) -> float:
        """Float value at one float point, with one coordinate per variable;
        compiles a one-off ``float_evaluator``, so code evaluating many
        points builds the evaluator itself."""
        self._check_point(point)
        return float_evaluator(self.vars, [self])(*point)[0]

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = []
            for name, k in zip(self.vars, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mono = " ".join(factors)
            if not mono:
                parts.append(f"{c}")
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c} {mono}")
        return " + ".join(parts).replace("+ -", "- ")


def _index(variables: tuple, name: str) -> int:
    if name not in variables:
        raise ValueError(f"unknown variable {name!r}, not one of {', '.join(variables)}")
    return variables.index(name)


def eval_terms(terms: dict, point: Sequence[Fraction]) -> Fraction:
    """The value of the map ``terms`` at a point of Fractions, skipping each
    term with a positive power of a zero coordinate."""
    total = Fraction(0)
    for e, c in terms.items():
        for p, k in zip(point, e):
            if k:
                if not p:
                    break
                c *= p**k
        else:
            total += c
    return total


def diff_terms(terms: dict, i: int) -> dict:
    """The exponent -> coefficient map of the derivative in variable i of
    the map ``terms`` (Fraction or int coefficients), in a new dict: e -> e -
    1_i is injective, so every term lands on its own key, and a coefficient
    times the int e_i scales exactly as the map does."""
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in terms.items() if e[i]}


def accumulate(terms: dict, other: dict) -> dict:
    """Add the exponent -> coefficient map ``other`` into ``terms`` in place,
    in ``other``'s order, and return ``terms``: a new key goes to the end,
    and a key whose sum cancels is deleted, so it goes to the end again if a
    later sum brings it back.  That is the key order, and every coefficient,
    of the chained ``+`` over the same summands, which is what
    ``float_evaluator``'s summation order reads.  ``terms`` must be a dict
    that no polynomial holds; nonzero coefficients in, nonzero out."""
    for e, c in other.items():
        s = terms.get(e)
        if s is not None:
            c = s + c
            if not c:
                del terms[e]
                continue
        terms[e] = c
    return terms


def poly_sum(variables: Sequence[str], summands) -> Polynomial:
    """The sum of the polynomials ``summands`` over ``variables``, built in
    one dict (``accumulate``) instead of one copy per ``+``; equal to the
    chained ``+`` from zero term by term, key order included."""
    variables = tuple(variables)
    terms: dict[tuple[int, ...], Fraction] = {}
    for p in summands:
        if p.vars != variables:
            raise ValueError("polynomials over different variables")
        accumulate(terms, p.terms)
    return Polynomial._trusted(variables, terms)


# terms per generated sum; a sum of a few thousand terms overflows the
# compiler's recursion limit, so longer polynomials are summed in statements
_SUM_CHUNK = 256


def _check_vars(variables, polys) -> None:
    variables = tuple(variables)
    if any(p.vars != variables for p in polys):
        raise ValueError("polynomial over different variables")


def float_shape(polys: Sequence[Polynomial]) -> tuple[tuple, list[float]]:
    """The shape of the float maps of ``polys``, and the coefficients it
    leaves out, in order.

    Map j rounds each coefficient to a float.  Its shape is the index of the
    first earlier map whose items equal its own (a repeat), or else the
    tuple of its terms ``(e, s)`` in ``terms`` order: s is the sign 1 or -1
    of a coefficient 1.0 or -1.0 before at least one factor (e nonzero), and
    0 for any other coefficient, whose float goes to the list.  The shape
    holds only ints and tuples, so two lists of one shape differ only in
    their coefficient lists.  A repeat has the value of the map it repeats:
    equal items give the same sum over the same values bit for bit, and the
    one pair of equal but distinct coefficients, 0.0 and -0.0, give terms
    that are +-0.0 or the same NaN, which a sum from 0.0 (never -0.0) adds
    alike."""
    shape: list = []
    coefficients: list[float] = []
    first: dict[tuple, int] = {}
    for p in polys:
        items = tuple([(e, float(c)) for e, c in p.terms.items()])
        j = first.setdefault(items, len(shape))
        if j < len(shape):
            shape.append(j)
            continue
        terms = []
        for e, c in items:
            sign = int(c) if (c == 1 or c == -1) and any(e) else 0
            if not sign:
                coefficients.append(c)
            terms.append((e, sign))
        shape.append(tuple(terms))
    return tuple(shape), coefficients


def _term(e, c, power) -> str:
    """The generated float term c x^e with its operator: ``" + c * f * .."``
    over the factors f = ``power(i, k)`` of the nonzero exponents k of e,
    for c the spelling of a coefficient (a literal or a local name), or
    ``" + f * .."`` and ``" - f * .."`` for c the sign 1 or -1."""
    factors = [power(i, k) for i, k in enumerate(e) if k]
    if type(c) is int:
        return (" - " if c < 0 else " + ") + " * ".join(factors)
    return " + " + " * ".join([c, *factors])


def _sum_lines(shape, coefficient, power, value) -> tuple[list[str], list[str]]:
    """The statements that sum the maps of ``shape`` (``float_shape``), and
    each map's value: ``"0.0"`` for an empty map, the local ``value(j)`` for
    a map j with terms, and the earlier map's value for a repeat, which gets
    no statement and no ``_term`` call.  Map j is summed in its order from
    0.0, at most _SUM_CHUNK terms per statement, each term ``_term(e, s or
    next(coefficient), power)``: the iterator ``coefficient`` spells the
    coefficients the shape leaves out, in order, and ``power(i, k)`` names
    the factor x_i**k."""
    lines: list[str] = []
    values: list[str] = []
    for j, terms in enumerate(shape):
        if type(terms) is int:
            values.append(values[terms])
            continue
        spelled = [_term(e, s or next(coefficient), power) for e, s in terms]
        total = "0.0"
        for start in range(0, len(spelled), _SUM_CHUNK):
            lines.append(f"{value(j)} = {total}" + "".join(spelled[start:start + _SUM_CHUNK]))
            total = value(j)
        values.append(total)
    return lines, values


def float_evaluator(variables: Sequence[str], polys: Sequence[Polynomial]):
    """Compile ``polys`` once into a straight-line function of the n float
    coordinates that returns every polynomial's float value as a tuple.

    Each distinct power x_i**k with k > 1 is bound once, at the top, to the
    local p{i}_{k}; a power x_i**1 is x_i itself.  Each polynomial is summed
    in ``terms`` order, from 0.0 (so -0.0 terms sum to 0.0), each term as
    ``+ float(c) * p * q ...`` left to right over the nonzero exponents, with
    a coefficient 1.0 left out and -1.0 written as ``- p * q ...``
    (``float_shape``, ``_sum_lines``); a polynomial whose float
    coefficients repeat an earlier one's reads that one's value.  These are
    the values and exceptions of the term-by-term loop ``v = float(c); v *=
    x_i**k ...; total += v``: float ``**`` is pure and x**1 is x, 1.0 * p is
    p, and ``total - p`` is ``total + (-p)``, where -p is -1.0 * p because
    rounding is sign-symmetric; every power with k > 1 is still evaluated,
    so one that overflows raises the same OverflowError.  The generated
    source holds only ``repr(float(c))`` literals, the names x0..x{n-1},
    p{i}_{k} and v0.., operators and int exponents."""
    _check_vars(variables, polys)
    shape, coefficients = float_shape(polys)
    powers: dict[tuple[int, int], str] = {}

    def power(i: int, k: int) -> str:
        return f"x{i}" if k == 1 else powers.setdefault((i, k), f"p{i}_{k}")

    sums, values = _sum_lines(shape, map(repr, coefficients), power, "v{}".format)
    lines = [
        f"def _evaluate({', '.join(f'x{i}' for i in range(len(variables)))}):",
        *(f"    {name} = x{i}**{k}" for (i, k), name in powers.items()),
        *(f"    {line}" for line in sums),
        f"    return ({''.join(f'{v}, ' for v in values)})",
    ]
    namespace: dict = {"__builtins__": {}}
    exec(compile("\n".join(lines) + "\n", "<float_evaluator>", "exec"), namespace)
    return namespace["_evaluate"]


def exact_evaluator(variables: Sequence[str], polys: Sequence[Polynomial]):
    """A function of the n int or Fraction coordinates that returns
    ``(ints, Q)`` for ``polys``: value j is ``ints[j] / Q``, with one int
    Q > 0 shared by every value.  With L the lcm of all coefficient
    denominators (``linalg.integer_table``) and deg the largest degree in
    ``polys``, it is ``scaled_evaluator`` of the coefficients times L."""
    _check_vars(variables, polys)
    scale, coefficients = integer_table({j: p.terms for j, p in enumerate(polys)})
    deg = max((p.degree() for p in polys), default=0)
    return scaled_evaluator(len(variables), scale, deg, coefficients.values())


def scaled_evaluator(arity: int, scale: int, deg: int, maps):
    """The exact evaluator of int polynomials scaled by ``scale``: ``maps``
    is a list of exponent -> nonzero int maps over ``arity`` coordinates,
    map j being L = ``scale`` times polynomial j, of degree at most ``deg``.
    The result takes the int or Fraction coordinates and returns
    ``(ints, Q)``: value j is ``ints[j] / Q``, with Q = L * D**deg > 0 shared
    by every value.  A point of the wrong length, or a coordinate without a
    denominator (a float), raises TypeError.

    With D the lcm of the coordinates' denominators and n_i = x_i * D, each
    term c x^e is the int c times D**(deg - |e|) and the n_i**e_i, so every
    product and sum is an int and a value is zero exactly when its int is.
    Nothing is generated or cached: the list is planned once per call, map j
    as the list of its terms (c, factor slots), and at each point the factors
    D, n_0, .. and then each distinct power with exponent > 1 are computed
    once, into one list, over which each map is summed term by term."""
    # slot 0 is D and slot 1 + i is n_i, so a term's exponents on the slots
    # are (deg - |e|, *e); the powers with exponent > 1 follow, from 1 + arity
    powers: dict[tuple[int, int], int] = {}  # (base slot, k > 1) -> slot
    plan = [
        [(c, tuple([i if k == 1 else powers.setdefault((i, k), 1 + arity + len(powers))
                    for i, k in enumerate((deg - sum(e), *e)) if k]))
         for e, c in coeffs.items()]
        for coeffs in maps
    ]

    def evaluate(*point):
        if len(point) != arity:
            raise TypeError(f"expected {arity} coordinates, got {len(point)}")
        try:
            denominators = [x.denominator for x in point]
        except AttributeError:
            i, x = next((i, x) for i, x in enumerate(point) if not hasattr(x, "denominator"))
            raise TypeError(
                f"coordinate {i} is a {type(x).__name__}, not an int or Fraction"
            ) from None
        D = math.lcm(*denominators)
        f = [D, *[x.numerator * (D // d) for x, d in zip(point, denominators)]]
        f += [f[base] ** k for base, k in powers]
        values = []
        for terms in plan:
            total = 0
            for c, factors in terms:
                for s in factors:
                    c *= f[s]
                total += c
            values.append(total)
        return tuple(values), scale * D**deg

    return evaluate
