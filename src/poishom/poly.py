"""Sparse multivariate polynomials with exact rational coefficients.

Terms are stored as a map from exponent tuples to ``Fraction``; no zero
coefficient is ever kept.  Polynomials over the same variable tuple form a
ring under +, -, *.  The public constructor checks and converts every term;
the ring operations and ``diff`` build their results from terms that are
already valid, in a new dict each, without that check.  A sum of many
polynomials is built in one dict (``poly_sum``, through ``accumulate``),
with the terms, and their order, of the chained ``+``.
``Polynomial.eval`` is the exact value at one rational point.

Code that evaluates a list of polynomials at many points compiles it once
into generated straight-line code: ``exact_evaluator`` returns int
numerators over one shared positive denominator, so the exact checks decide
zero on ints and build a ``Fraction`` only for a value they report, and
``float_evaluator`` returns floats, for the numerical integrators.  Both
generate only the arithmetic a term needs: a first power is read as the
coordinate itself, higher powers are bound once per call (or, for the
coordinates a float evaluator is told are frozen, once per bind), a
coefficient 1 or -1 is a sign, not a factor, and a polynomial whose
coefficients (as the evaluator reads them) repeat an earlier one's reads
that one's value.
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
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
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
        i = _index(self.vars, var)
        # e -> e - 1_i is injective, so every term lands on its own key
        return Polynomial._trusted(
            self.vars,
            {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in self.terms.items() if e[i]},
        )

    def _check_point(self, point: Sequence) -> None:
        if len(point) != len(self.vars):
            raise ValueError(
                f"point has {len(point)} coordinates, the polynomial {len(self.vars)} variables"
            )

    def eval(self, point: Sequence) -> Fraction:
        """Exact evaluation at a rational point with one coordinate per
        variable."""
        self._check_point(point)
        pt = [frac(p) for p in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for p, k in zip(pt, e):
                if k:
                    v *= p ** k
            total += v
        return total

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


def _power(name: str, base: str, k: int, powers: dict) -> str:
    """The factor base**k of a generated term: ``base`` itself for k = 1,
    else the local ``name``, registered in ``powers`` (as ``(base, k)``) to
    be bound once."""
    if k == 1:
        return base
    powers.setdefault(name, (base, k))
    return name


def _term(c, literal: str, factors: list) -> str:
    """A generated term with its operator, ``" + literal * f * .."``; a unit
    coefficient c = 1 or -1 before at least one factor is written as the
    sign alone, ``" + f * .."`` or ``" - f * .."``."""
    if factors and (c == 1 or c == -1):
        return (" - " if c < 0 else " + ") + " * ".join(factors)
    return " + " + " * ".join([literal, *factors])


def _compile_sums(
    coefficients, params: str, term, zero: str, suffix: str, filename: str, bound=None
):
    """Generate and compile ``_evaluate(params)`` over a list of exponent ->
    coefficient maps: each power that ``term`` registers in ``powers`` (local
    name -> (base, k), see ``_power``) is bound once at the top, in
    first-use order; map j is summed in its own order from ``zero`` into
    v{j}, at most _SUM_CHUNK terms per statement, each term the signed
    expression ``term(e, c, powers)`` (see ``_term``); the function returns
    the tuple of the values, followed by ``suffix``, and runs with empty
    builtins.  A map equal item for item to an earlier one gets no statement
    of its own, and no call to ``term``: its value is the earlier local.
    Equal items give the same expression over the same locals, which would
    only recompute that value bit for bit; the one pair of equal but
    distinct coefficients, the floats 0.0 and -0.0, give terms that are
    +-0.0 or the same NaN, which a sum from 0.0 (never -0.0) adds alike.

    With ``bound`` (a sequence of parameter names, possibly empty) the
    result is instead ``_bind(bound)``, which binds the powers of those
    names once and returns ``_evaluate(params)`` over the rest, reading
    the bound names and powers from the enclosing call; with no name bound
    it is a plain function that returns ``_evaluate``."""
    powers: dict[str, tuple[str, int]] = {}
    sums = []
    values = []
    local_of: dict[tuple, str] = {}
    for j, coeffs in enumerate(coefficients):
        items = tuple(coeffs.items())
        total = local_of.get(items)
        if total is None:
            terms = [term(e, c, powers) for e, c in items]
            total = zero
            for start in range(0, len(terms), _SUM_CHUNK):
                sums.append(f"    v{j} = {total}" + "".join(terms[start:start + _SUM_CHUNK]))
                total = f"v{j}"
            local_of[items] = total
        values.append(total)
    outer = set(bound or ())
    lines = [f"def _evaluate({params}):"]
    lines += [f"    {name} = {b}**{k}" for name, (b, k) in powers.items() if b not in outer]
    lines += sums
    lines.append(f"    return ({''.join(f'{v}, ' for v in values)}){suffix}")
    if bound:
        binds = [f"{name} = {b}**{k}" for name, (b, k) in powers.items() if b in outer]
        lines = [f"def _bind({', '.join(bound)}):", *(f"    {line}" for line in binds),
                 *(f"    {line}" for line in lines), "    return _evaluate"]
    namespace: dict = {"__builtins__": {}}
    exec(compile("\n".join(lines) + "\n", filename, "exec"), namespace)
    if bound is None:
        return namespace["_evaluate"]
    return namespace["_bind"] if bound else lambda: namespace["_evaluate"]


def float_evaluator(
    variables: Sequence[str], polys: Sequence[Polynomial], frozen: Sequence[int] | None = None
):
    """Compile ``polys`` once into a straight-line function of the n float
    coordinates that returns every polynomial's float value as a tuple.

    Each distinct power x_i**k with k > 1 is bound once, at the top, to the
    local p{i}_{k}; a power x_i**1 is x_i itself.  Each polynomial is summed
    in ``terms`` order, from 0.0 (so -0.0 terms sum to 0.0), each term as
    ``+ float(c) * p * q ...`` left to right over the nonzero exponents, with
    a coefficient 1.0 left out and -1.0 written as ``- p * q ...``.  These
    are the values and exceptions of the term-by-term loop ``v = float(c);
    v *= x_i**k ...; total += v``: float ``**`` is pure and x**1 is x, 1.0 *
    p is p, and ``total - p`` is ``total + (-p)``, where -p is -1.0 * p
    because rounding is sign-symmetric; every power with k > 1 is still
    evaluated, so one that overflows raises the same OverflowError.  The
    generated source holds only ``repr(float(c))`` literals, the names
    x0..x{n-1}, p{i}_{k} and v0.., operators and int exponents.

    ``frozen``, a sequence of coordinate indices (possibly empty), is for
    coordinates that hold one value over many evaluations.  The result is
    then ``bind(*their values)``, in index order, which evaluates their
    powers once and returns the evaluator of the other coordinates, in
    index order.  Its values are those of the evaluator without
    ``frozen`` at the same point, bit for bit, and a frozen power that
    overflows raises its OverflowError at the bind."""

    def term(e, c, powers):
        factors = [_power(f"p{i}_{k}", f"x{i}", k, powers) for i, k in enumerate(e) if k]
        return _term(c, repr(c), factors)

    _check_vars(variables, polys)
    held = set(frozen or ())
    params = ", ".join(f"x{i}" for i in range(len(variables)) if i not in held)
    bound = None if frozen is None else [f"x{i}" for i in sorted(held)]
    # float coefficients, so that polynomials whose coefficients round alike
    # share one sum
    coefficients = [{e: float(c) for e, c in p.terms.items()} for p in polys]
    return _compile_sums(coefficients, params, term, "0.0", "", "<float_evaluator>", bound)


def exact_evaluator(variables: Sequence[str], polys: Sequence[Polynomial]):
    """Compile ``polys`` once into a function of the n int or Fraction
    coordinates that returns ``(ints, Q)``: value j is ``ints[j] / Q``, with
    one int Q > 0 shared by every value.  A point of the wrong length raises
    TypeError.

    With D the lcm of the coordinates' denominators, n_i = x_i * D, deg the
    largest degree in ``polys`` and L the lcm of all coefficient
    denominators (``linalg.integer_table``), each term c x^e is the int ``c * L`` times the powers
    n_i**k times D**(deg - |e|), and Q = L * D**deg.  Every product and sum
    is an int, so a value is zero exactly when its int is.  The generated
    function takes (D, n_0, .., n_{n-1}) as (D, x0, .., x{n-1}), binds each
    distinct power n_i**k and D**m with k, m > 1 to p{i}_{k} and d{m} once
    (a first power is its base), writes a coefficient +-1 as a sign (the
    float evaluator's term rule, ``_term``), and holds only int literals (in
    hex, which has no digit limit), those names, v0.. and int exponents."""
    _check_vars(variables, polys)
    n = len(variables)
    scale, coefficients = integer_table({j: p.terms for j, p in enumerate(polys)})
    deg = max((p.degree() for p in polys), default=0)

    def term(e, c, powers):
        factors = [_power(f"p{i}_{k}", f"x{i}", k, powers) for i, k in enumerate(e) if k]
        missing = deg - sum(e)
        if missing:
            factors.append(_power(f"d{missing}", "D", missing, powers))
        return _term(c, hex(c), factors)

    params = "".join(f", x{i}" for i in range(n))
    suffix = f", {hex(scale)} * D**{deg}"
    compiled = _compile_sums(
        coefficients.values(), f"D{params}", term, "0", suffix, "<exact_evaluator>"
    )

    def evaluate(*point):
        if len(point) != n:
            raise TypeError(f"expected {n} coordinates, got {len(point)}")
        D = math.lcm(*[x.denominator for x in point])
        return compiled(D, *[x.numerator * (D // x.denominator) for x in point])

    return evaluate
