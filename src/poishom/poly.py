"""Sparse multivariate polynomials with exact rational coefficients.

Terms are stored as a map from exponent tuples to ``Fraction``; no zero
coefficient is ever kept.  Polynomials over the same variable tuple form a
ring under +, -, *; evaluation is exact on rational points, and float
evaluation goes through one compiled evaluator per polynomial list
(``float_evaluator``), which the numerical integrators build once per run.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import frac


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
            if len(expo) != len(self.vars) or any(e < 0 for e in expo):
                raise ValueError("bad exponent tuple")
            cleaned[expo] = c
        self.terms = cleaned

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
        i = list(variables).index(name)
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
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return Polynomial(self.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Polynomial(self.vars, out)

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
        return self.terms == Polynomial.constant(self.vars, other).terms

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    # -- calculus and evaluation --------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def diff(self, var: str) -> "Polynomial":
        i = self.vars.index(var)
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            if e[i]:
                de = list(e)
                de[i] -= 1
                out[tuple(de)] = out.get(tuple(de), Fraction(0)) + c * e[i]
        return Polynomial(self.vars, out)

    def eval(self, point: Sequence) -> Fraction:
        """Exact evaluation at a rational point."""
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
        """Float value at one point; compiles a one-off ``float_evaluator``,
        so code evaluating many points builds the evaluator itself."""
        return float_evaluator(self.vars, [self])(*point)[0]

    def subs_vars(self, new_vars: Sequence[str], images: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute each of this polynomial's variables by a polynomial in
        ``new_vars`` (used to compose with the group multiplication map)."""
        if len(images) != len(self.vars):
            raise ValueError("one image per variable is required")
        out = Polynomial.zero(new_vars)
        for e, c in self.terms.items():
            term = Polynomial.constant(new_vars, c)
            for img, k in zip(images, e):
                if k:
                    term = term * img ** k
            out = out + term
        return out

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


# terms per generated sum; a sum of a few thousand terms overflows the
# compiler's recursion limit, so longer polynomials are summed in statements
_SUM_CHUNK = 256


def float_evaluator(variables: Sequence[str], polys: Sequence[Polynomial]):
    """Compile ``polys`` once into a straight-line function of the n
    coordinates that returns every polynomial's float value as a tuple.

    Each distinct power x_i**k (``**`` kept for k = 1) is bound once, at the
    top, to the local p{i}_{k}.  Each polynomial is summed in ``terms`` order,
    from 0.0 (so -0.0 terms sum to 0.0), each term as ``float(c) * p * q ...``
    left to right over the nonzero exponents.  Float ``**`` is pure, so every
    value and every OverflowError is that of the term-by-term loop.  The
    generated source holds only ``repr(float(c))`` literals, the names
    x0..x{n-1}, p{i}_{k} and v0.., operators and int exponents."""
    variables = tuple(variables)
    args = ", ".join(f"x{i}" for i in range(len(variables)))
    powers: dict[str, str] = {}  # local name -> its power, in first-use order
    sums = []
    values = []
    for j, p in enumerate(polys):
        if p.vars != variables:
            raise ValueError("polynomial over different variables")
        terms = []
        for e, c in p.terms.items():
            factors = [repr(float(c))]
            for i, k in enumerate(e):
                if k:
                    name = f"p{i}_{k}"
                    powers.setdefault(name, f"x{i}**{k}")
                    factors.append(name)
            terms.append(" * ".join(factors))
        total = "0.0"
        for start in range(0, len(terms), _SUM_CHUNK):
            sums.append(f"    v{j} = " + " + ".join([total, *terms[start:start + _SUM_CHUNK]]))
            total = f"v{j}"
        values.append(total)
    lines = [f"def _evaluate({args}):"]
    lines += [f"    {name} = {power}" for name, power in powers.items()]
    lines += sums
    lines.append(f"    return ({''.join(f'{v}, ' for v in values)})")
    namespace: dict = {"__builtins__": {}}
    exec(compile("\n".join(lines) + "\n", "<float_evaluator>", "exec"), namespace)
    return namespace["_evaluate"]
