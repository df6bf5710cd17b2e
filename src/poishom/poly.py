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
the list once per call (each distinct power bound once per point, terms
grouped by their number of factors, and a polynomial whose coefficients
repeat an earlier one's planned once) and runs the plan at each point in
``map`` passes over ``itemgetter`` columns, with no Python loop per term.
``float_evaluator`` returns floats, for the numerical integrators; it
compiles the list into generated straight-line code that holds only the
arithmetic a term needs: a first power is read as the coordinate itself,
higher powers are bound once per call (or, for the coordinates it is told
are frozen, once per bind), a coefficient 1.0 or -1.0 is a sign, not a
factor, and a polynomial whose float coefficients repeat an earlier one's
reads that one's value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import floordiv, itemgetter, mul
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


def _term(e, c, powers: dict) -> str:
    """The generated float term c x^e with its operator,
    ``" + repr(c) * f * .."`` over the factors f of its nonzero exponents: a
    first power x_i**1 is ``x{i}`` itself, and a higher one is the local
    ``p{i}_{k}``, registered in ``powers`` (as ``(x{i}, k)``) to be bound
    once.  A coefficient 1.0 or -1.0 before at least one factor is written
    as the sign alone, ``" + f * .."`` or ``" - f * .."``."""
    factors = []
    for i, k in enumerate(e):
        if k == 1:
            factors.append(f"x{i}")
        elif k:
            name = f"p{i}_{k}"
            powers.setdefault(name, (f"x{i}", k))
            factors.append(name)
    if factors and (c == 1 or c == -1):
        return (" - " if c < 0 else " + ") + " * ".join(factors)
    return " + " + " * ".join([repr(c), *factors])


def _compile_sums(coefficients, params: str, bound=None):
    """Generate and compile the float ``_evaluate(params)`` over a list of
    exponent -> float coefficient maps: each power that ``_term`` registers
    is bound once at the top, in first-use order; map j is summed in its own
    order from 0.0 into v{j}, at most _SUM_CHUNK terms per statement, each
    term ``_term(e, c, powers)``; the function returns the tuple of the
    values and runs with empty builtins.  A map equal item for item to an
    earlier one gets no statement of its own, and no call to ``_term``: its
    value is the earlier local.  Equal items give the same expression over
    the same locals, which would only recompute that value bit for bit; the
    one pair of equal but distinct coefficients, 0.0 and -0.0, give terms
    that are +-0.0 or the same NaN, which a sum from 0.0 (never -0.0) adds
    alike.

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
            terms = [_term(e, c, powers) for e, c in items]
            total = "0.0"
            for start in range(0, len(terms), _SUM_CHUNK):
                sums.append(f"    v{j} = {total}" + "".join(terms[start:start + _SUM_CHUNK]))
                total = f"v{j}"
            local_of[items] = total
        values.append(total)
    outer = set(bound or ())
    lines = [f"def _evaluate({params}):"]
    lines += [f"    {name} = {b}**{k}" for name, (b, k) in powers.items() if b not in outer]
    lines += sums
    lines.append(f"    return ({''.join(f'{v}, ' for v in values)})")
    if bound:
        binds = [f"{name} = {b}**{k}" for name, (b, k) in powers.items() if b in outer]
        lines = [f"def _bind({', '.join(bound)}):", *(f"    {line}" for line in binds),
                 *(f"    {line}" for line in lines), "    return _evaluate"]
    namespace: dict = {"__builtins__": {}}
    exec(compile("\n".join(lines) + "\n", "<float_evaluator>", "exec"), namespace)
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
    _check_vars(variables, polys)
    held = set(frozen or ())
    params = ", ".join(f"x{i}" for i in range(len(variables)) if i not in held)
    bound = None if frozen is None else [f"x{i}" for i in sorted(held)]
    # float coefficients, so that polynomials whose coefficients round alike
    # share one sum
    coefficients = [{e: float(c) for e, c in p.terms.items()} for p in polys]
    return _compile_sums(coefficients, params, bound)


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


def _picker(slots):
    """``itemgetter(*slots)``, returning a tuple for any number of slots."""
    if len(slots) > 1:
        return itemgetter(*slots)
    return lambda values: tuple([values[s] for s in slots])


def scaled_evaluator(arity: int, scale: int, deg: int, maps):
    """The exact evaluator of int polynomials scaled by ``scale``: ``maps``
    is a list of exponent -> nonzero int maps over ``arity`` coordinates,
    map j being L = ``scale`` times polynomial j, of degree at most ``deg``.
    The result takes the int or Fraction coordinates and returns
    ``(ints, Q)``: value j is ``ints[j] / Q``, with Q = L * D**deg > 0 shared
    by every value.  A point of the wrong length, or a coordinate without a
    denominator (a float), raises TypeError.

    With D the lcm of the coordinates' denominators and n_i = x_i * D, each
    term c x^e is the int c times the factors n_i**k and D**(deg - |e|) of
    its nonzero exponents, so every product and sum is an int and a value is
    zero exactly when its int is.  Nothing is generated or cached: the list
    is planned once per call, and each point runs the plan in ``map``
    passes, with no Python loop per term.  The bases D, n_0, .. and then the
    distinct powers with exponent > 1, each computed once per point, fill
    one list of factors.  The distinct terms (c, e) of the maps are grouped
    by their number of factors; a group's values are its coefficients times
    each factor column in turn, read from the factor list by one
    ``itemgetter`` per column.  A map equal item for item to an earlier one
    is planned once and reads that one's value; a map of one term is that
    term's value, and a longer one is one sum over its terms."""
    # factor slots: D is slot 0, n_i slot 1 + i, then the powers from slot `first`
    first = 1 + arity
    powers: dict[tuple[int, int], int] = {}  # (base slot, k > 1) -> slot
    groups: dict[int, dict[tuple, int]] = {}  # factor count -> (factors, c) -> index
    planned: dict[tuple, list] = {}  # coefficient items -> their terms' (count, index)
    out = []

    def factor(base: int, k: int) -> int:
        return base if k == 1 else powers.setdefault((base, k), first + len(powers))

    for coeffs in maps:
        items = tuple(coeffs.items())
        if items not in planned:
            refs = planned[items] = []
            for e, c in items:
                factors = [factor(1 + i, k) for i, k in enumerate(e) if k]
                missing = deg - sum(e)
                if missing:
                    factors.append(factor(0, missing))
                group = groups.setdefault(len(factors), {})
                refs.append((len(factors), group.setdefault((tuple(factors), c), len(group))))
        out.append(items)

    # the value list: 0 (the zero polynomial's value), each group's terms in
    # factor-count order, then the sums of the maps of more than one term
    products = []
    offset = {}
    size = 1
    for count in sorted(groups):
        terms = list(groups[count])
        offset[count] = size
        size += len(terms)
        columns = [_picker([factors[k] for factors, _ in terms]) for k in range(count)]
        products.append((tuple([c for _, c in terms]), columns))
    sums = []
    slot = {}
    for items, refs in planned.items():
        slots = [offset[count] + index for count, index in refs]
        if len(slots) > 1:
            slot[items] = size + len(sums)
            sums.append(itemgetter(*slots))
        else:
            slot[items] = slots[0] if slots else 0
    pick = _picker([slot[items] for items in out])
    bases = _picker([base for base, _ in powers])
    exponents = tuple([k for _, k in powers])

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
        numerators = [x.numerator for x in point]
        factor_values = [D, *map(mul, numerators, map(floordiv, repeat(D), denominators))]
        factor_values += map(pow, bases(factor_values), exponents)
        values = [0]
        for coefficients, columns in products:
            column_values = coefficients
            for column in columns:
                column_values = map(mul, column_values, column(factor_values))
            values += column_values
        values += [sum(terms(values)) for terms in sums]
        return pick(values), scale * D**deg

    return evaluate
