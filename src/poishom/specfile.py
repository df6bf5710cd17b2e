"""Line-oriented input files describing algebras, cobrackets and models.

Grammar (documented in the README; everything after '#' is a comment):

    [algebra]
    basis: X1 X2 X3
    X1,X3 -> 1 X2            # bracket lines, one unordered pair each
    X2,X3 -> -1 X2

    [rmatrix]                # or a [delta] section
    1 eta X1^X2

    [delta]
    X3 -> 1 X1^X2

    [subalgebra]
    X1                       # one basis vector per line; combinations allowed
    1 X1 + 2 X2

    [coordinate_model]
    variables: x y z t
    base: 1 0 0 0
    poisson_lie: yes
    constraint: 1 x^2 + 1 y^2 + 1 z^2 + 1 t^2 + -1
    x,y -> 1/2 eta z^2 + 1/2 eta t^2
    mult x: 1 x x' + -1 y y'
    field left_chi: 1 eta y, -1 eta x, 1 eta t, -1 eta z

Numeric literals are exact rationals ('p/q' or integers); the token ``eta``
multiplies a term by the instantiation parameter.  Polynomial terms are
coefficient-times-monomial with juxtaposed variable powers; no parentheses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .bialgebra import CocommutatorMap, LieBialgebra
from .coord import PolynomialPoissonModel
from .exterior import ExteriorElement
from .homspace import HomogeneousSpaceSpec
from .lie import LieAlgebra
from .linalg import frac
from .poly import Polynomial

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")
_NAME = re.compile(r"^[A-Za-z][A-Za-z0-9_+'-]*(\^[A-Za-z0-9_+'-]+)?$")


class SpecParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass
class CoordinateModelDoc:
    variables: tuple[str, ...] = ()
    base_point: Optional[tuple[Fraction, ...]] = None
    poisson_lie: bool = False
    brackets: dict = field(default_factory=dict)   # (i, j) -> Polynomial
    constraints: list = field(default_factory=list)
    mult: dict = field(default_factory=dict)       # var name -> Polynomial
    fields: dict = field(default_factory=dict)     # name -> tuple[Polynomial]


@dataclass
class SpecDocument:
    labels: tuple[str, ...] = ()
    brackets: dict = field(default_factory=dict)   # (i, j) i<j -> {k: Fraction}
    rmatrix: Optional[dict] = None                 # (i, j) i<j -> Fraction
    delta: Optional[dict] = None                   # k -> {(i, j): Fraction}
    subalgebra: Optional[list] = None              # list of coefficient rows
    model: Optional[CoordinateModelDoc] = None

    # -- builders ----------------------------------------------------------
    def build_algebra(self) -> LieAlgebra:
        return LieAlgebra(self.labels, self.brackets)

    def build_bialgebra(self) -> LieBialgebra:
        g = self.build_algebra()
        if self.rmatrix is not None:
            r = ExteriorElement(g, 2, self.rmatrix, False)
            return LieBialgebra.from_rmatrix(g, r)
        if self.delta is not None:
            return LieBialgebra(g, CocommutatorMap.from_images(g, self.delta))
        raise ValueError("document has neither an rmatrix nor a delta section")

    def build_homspace(self, name: str = "input") -> HomogeneousSpaceSpec:
        B = self.build_bialgebra()
        if self.subalgebra is None:
            raise ValueError("document has no subalgebra section")
        vectors = [B.g.vector(row) for row in self.subalgebra]
        return HomogeneousSpaceSpec(name=name, bialgebra=B, h=B.g.subalgebra(vectors))

    def build_model(self, name: str = "input") -> PolynomialPoissonModel:
        doc = self.model
        if doc is None:
            raise ValueError("document has no coordinate model section")
        group_mult = None
        if doc.mult:
            names = list(doc.variables) + [f"{v}'" for v in doc.variables]
            group_mult = [
                doc.mult.get(v, Polynomial.variable(names, v)) for v in doc.variables
            ]
        return PolynomialPoissonModel(
            name,
            doc.variables,
            doc.brackets,
            constraints=doc.constraints,
            base_point=doc.base_point,
            poisson_lie=doc.poisson_lie,
            group_mult=group_mult,
        )


# ---------------------------------------------------------------------------
# tokenizing helpers
# ---------------------------------------------------------------------------


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].rstrip()


def _parse_rational(tok: str, lineno: int, col: int = 0) -> Fraction:
    if not _RATIONAL.match(tok):
        raise SpecParseError(f"expected a rational literal, got {tok!r}", lineno, col)
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise SpecParseError(f"zero denominator in {tok!r}", lineno, col) from None


def _parse_combo_terms(text: str, lineno: int):
    """Split 'coeff factors + coeff factors + ...' into term token lists."""
    out = []
    for chunk in text.split("+"):
        toks = chunk.split()
        if not toks:
            raise SpecParseError("empty term", lineno)
        out.append(toks)
    return out


def _term_coeff_and_factors(toks, lineno, eta: Fraction):
    coeff = Fraction(1)
    factors = []
    seen_number = False
    for t in toks:
        if _RATIONAL.match(t):
            if seen_number:
                raise SpecParseError("two numeric literals in one term", lineno)
            coeff *= _parse_rational(t, lineno)
            seen_number = True
        elif t == "eta":
            coeff *= eta
        else:
            if not _NAME.match(t):
                raise SpecParseError(f"bad token {t!r}", lineno)
            factors.append(t)
    if not seen_number:
        raise SpecParseError("terms need an explicit rational coefficient", lineno)
    return coeff, factors


def _parse_poly(text: str, variables, lineno: int, eta: Fraction) -> Polynomial:
    out = Polynomial.zero(variables)
    for toks in _parse_combo_terms(text, lineno):
        coeff, factors = _term_coeff_and_factors(toks, lineno, eta)
        expo = [0] * len(variables)
        for f in factors:
            if "^" in f:
                name, _, power = f.partition("^")
                if not power.isdigit():
                    raise SpecParseError(f"exponent must be an integer in {f!r}", lineno)
                k = int(power)
            else:
                name, k = f, 1
            if name not in variables:
                raise SpecParseError(f"unknown variable {name!r}", lineno)
            expo[list(variables).index(name)] += k
        out = out + Polynomial.monomial(variables, expo, coeff)
    return out


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def parse_spec_text(text: str, eta=1) -> SpecDocument:
    eta = frac(eta)
    doc = SpecDocument()
    section = None
    label_index: dict[str, int] = {}
    seen_pairs: dict[tuple[int, int], tuple[int, dict]] = {}

    def need_algebra(lineno):
        if not doc.labels:
            raise SpecParseError("an [algebra] section with a basis must come first", lineno)

    def label(tok: str, lineno: int) -> int:
        if tok not in label_index:
            raise SpecParseError(f"unknown label {tok!r}", lineno)
        return label_index[tok]

    def parse_vector_combo(text: str, lineno: int):
        row = [Fraction(0)] * len(doc.labels)
        toks_all = text.split()
        if len(toks_all) == 1 and toks_all[0] in label_index:
            row[label_index[toks_all[0]]] = Fraction(1)
            return row
        for toks in _parse_combo_terms(text, lineno):
            coeff, factors = _term_coeff_and_factors(toks, lineno, eta)
            if len(factors) != 1:
                raise SpecParseError("each term must name exactly one basis vector", lineno)
            row[label(factors[0], lineno)] += coeff
        return row

    def parse_wedge_terms(text: str, lineno: int) -> dict:
        terms: dict[tuple[int, int], Fraction] = {}
        for toks in _parse_combo_terms(text, lineno):
            coeff, factors = _term_coeff_and_factors(toks, lineno, eta)
            if len(factors) != 1 or "^" in factors[0] and factors[0].count("^") != 1:
                raise SpecParseError("wedge terms look like 'coeff A^B'", lineno)
            name = factors[0]
            if "^" not in name:
                raise SpecParseError("wedge terms look like 'coeff A^B'", lineno)
            a, _, b = name.partition("^")
            i, j = label(a, lineno), label(b, lineno)
            if i == j:
                continue
            key, sign = ((i, j), 1) if i < j else ((j, i), -1)
            terms[key] = terms.get(key, Fraction(0)) + sign * coeff
        return {k: v for k, v in terms.items() if v}

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("algebra", "rmatrix", "delta", "subalgebra", "coordinate_model"):
                raise SpecParseError(f"unknown section {section!r}", lineno)
            if section == "rmatrix":
                doc.rmatrix = {}
            elif section == "delta":
                doc.delta = {}
            elif section == "subalgebra":
                doc.subalgebra = []
            elif section == "coordinate_model":
                doc.model = CoordinateModelDoc()
            continue
        if section is None:
            raise SpecParseError("content before the first section header", lineno)

        if section == "algebra":
            if line.startswith("basis:"):
                if doc.labels:
                    # brackets and labels read so far index the first basis
                    raise SpecParseError("basis given twice", lineno)
                labels = line[len("basis:"):].split()
                if not labels:
                    raise SpecParseError("empty basis", lineno)
                if len(set(labels)) != len(labels):
                    raise SpecParseError("duplicate basis label", lineno)
                for tok in labels:
                    if not _NAME.match(tok) or "^" in tok:
                        raise SpecParseError(f"bad basis label {tok!r}", lineno)
                doc.labels = tuple(labels)
                label_index.update({l: i for i, l in enumerate(labels)})
                continue
            need_algebra(lineno)
            if "->" not in line:
                raise SpecParseError("expected 'A,B -> terms'", lineno)
            head, _, tail = line.partition("->")
            pair = [t.strip() for t in head.split(",")]
            if len(pair) != 2:
                raise SpecParseError("bracket lines start with 'A,B ->'", lineno)
            i, j = label(pair[0], lineno), label(pair[1], lineno)
            if i == j:
                raise SpecParseError("bracket of a vector with itself is zero", lineno)
            image: dict[int, Fraction] = {}
            tail = tail.strip()
            if tail != "0":
                for toks in _parse_combo_terms(tail, lineno):
                    coeff, factors = _term_coeff_and_factors(toks, lineno, eta)
                    if len(factors) != 1:
                        raise SpecParseError("bracket terms look like 'coeff X'", lineno)
                    k = label(factors[0], lineno)
                    image[k] = image.get(k, Fraction(0)) + coeff
            image = {k: v for k, v in image.items() if v}
            key = (i, j) if i < j else (j, i)
            normalized = image if i < j else {k: -v for k, v in image.items()}
            if key in seen_pairs:
                prev_line, prev = seen_pairs[key]
                if prev != normalized:
                    raise SpecParseError(
                        f"bracket pair given twice with inconsistent values "
                        f"(first at line {prev_line})",
                        lineno,
                    )
                continue
            seen_pairs[key] = (lineno, normalized)
            if normalized:
                doc.brackets[key] = normalized
        elif section == "rmatrix":
            need_algebra(lineno)
            terms = parse_wedge_terms(line, lineno)
            for k, v in terms.items():
                doc.rmatrix[k] = doc.rmatrix.get(k, Fraction(0)) + v
            doc.rmatrix = {k: v for k, v in doc.rmatrix.items() if v}
        elif section == "delta":
            need_algebra(lineno)
            if "->" not in line:
                raise SpecParseError("expected 'X -> wedge terms'", lineno)
            head, _, tail = line.partition("->")
            k = label(head.strip(), lineno)
            tail = tail.strip()
            doc.delta[k] = {} if tail == "0" else parse_wedge_terms(tail, lineno)
        elif section == "subalgebra":
            need_algebra(lineno)
            doc.subalgebra.append(parse_vector_combo(line, lineno))
        elif section == "coordinate_model":
            m = doc.model
            if line.startswith("variables:"):
                names = line[len("variables:"):].split()
                if not names or len(set(names)) != len(names):
                    raise SpecParseError("bad variable list", lineno)
                m.variables = tuple(names)
                continue
            if not m.variables:
                raise SpecParseError("the model needs a variables line first", lineno)
            if line.startswith("base:"):
                vals = line[len("base:"):].split()
                if len(vals) != len(m.variables):
                    raise SpecParseError("base point has the wrong length", lineno)
                m.base_point = tuple(_parse_rational(v, lineno) for v in vals)
            elif line.startswith("poisson_lie:"):
                flag = line[len("poisson_lie:"):].strip()
                if flag not in ("yes", "no"):
                    raise SpecParseError("poisson_lie takes 'yes' or 'no'", lineno)
                m.poisson_lie = flag == "yes"
            elif line.startswith("constraint:"):
                m.constraints.append(
                    _parse_poly(line[len("constraint:"):].strip(), m.variables, lineno, eta)
                )
            elif line.startswith("mult "):
                head, _, tail = line[len("mult "):].partition(":")
                var = head.strip()
                if var not in m.variables:
                    raise SpecParseError(f"unknown variable {var!r}", lineno)
                names = list(m.variables) + [f"{v}'" for v in m.variables]
                m.mult[var] = _parse_poly(tail.strip(), tuple(names), lineno, eta)
            elif line.startswith("field "):
                head, _, tail = line[len("field "):].partition(":")
                comps = [c.strip() for c in tail.split(",")]
                if len(comps) != len(m.variables):
                    raise SpecParseError("field needs one component per variable", lineno)
                m.fields[head.strip()] = tuple(
                    _parse_poly(c, m.variables, lineno, eta) for c in comps
                )
            elif "->" in line:
                head, _, tail = line.partition("->")
                pair = [t.strip() for t in head.split(",")]
                if len(pair) != 2 or any(p not in m.variables for p in pair):
                    raise SpecParseError("bracket lines look like 'x,y -> poly'", lineno)
                i = m.variables.index(pair[0])
                j = m.variables.index(pair[1])
                if i == j:
                    raise SpecParseError("bracket of a variable with itself", lineno)
                p = _parse_poly(tail.strip(), m.variables, lineno, eta)
                key = (i, j) if i < j else (j, i)
                stored = p if i < j else -p
                if key in m.brackets:
                    if m.brackets[key] != stored:
                        raise SpecParseError(
                            "model bracket pair given twice with inconsistent values", lineno
                        )
                    continue
                m.brackets[key] = stored
            else:
                raise SpecParseError("unrecognized model line", lineno)
    if not doc.labels and doc.model is None:
        raise SpecParseError("document defines neither an algebra nor a model", 1)
    return doc


# ---------------------------------------------------------------------------
# serializing (canonical form; parse(serialize(doc)) == doc)
# ---------------------------------------------------------------------------


def _fmt_poly(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for expo in sorted(p.terms, reverse=True):
        factors = [str(p.terms[expo])]
        for name, k in zip(p.vars, expo):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        parts.append(" ".join(factors))
    return " + ".join(parts)


def serialize_spec(doc: SpecDocument) -> str:
    out = []
    if doc.labels:
        out.append("[algebra]")
        out.append("basis: " + " ".join(doc.labels))
        for (i, j) in sorted(doc.brackets):
            terms = " + ".join(
                f"{c} {doc.labels[k]}" for k, c in sorted(doc.brackets[(i, j)].items())
            )
            out.append(f"{doc.labels[i]},{doc.labels[j]} -> {terms or '0'}")
    if doc.rmatrix is not None:
        out.append("")
        out.append("[rmatrix]")
        line = " + ".join(
            f"{c} {doc.labels[i]}^{doc.labels[j]}" for (i, j), c in sorted(doc.rmatrix.items())
        )
        out.append(line or "0 " + f"{doc.labels[0]}^{doc.labels[1]}")
    if doc.delta is not None:
        out.append("")
        out.append("[delta]")
        for k in sorted(doc.delta):
            terms = " + ".join(
                f"{c} {doc.labels[i]}^{doc.labels[j]}"
                for (i, j), c in sorted(doc.delta[k].items())
            )
            out.append(f"{doc.labels[k]} -> {terms or '0'}")
    if doc.subalgebra is not None:
        out.append("")
        out.append("[subalgebra]")
        for row in doc.subalgebra:
            terms = " + ".join(f"{c} {doc.labels[i]}" for i, c in enumerate(row) if c)
            out.append(terms or f"0 {doc.labels[0]}")
    if doc.model is not None:
        m = doc.model
        out.append("")
        out.append("[coordinate_model]")
        out.append("variables: " + " ".join(m.variables))
        if m.base_point is not None:
            out.append("base: " + " ".join(str(c) for c in m.base_point))
        if m.poisson_lie:
            out.append("poisson_lie: yes")
        for c in m.constraints:
            out.append("constraint: " + _fmt_poly(c))
        for (i, j) in sorted(m.brackets):
            out.append(f"{m.variables[i]},{m.variables[j]} -> {_fmt_poly(m.brackets[(i, j)])}")
        for v in m.variables:
            if v in m.mult:
                out.append(f"mult {v}: {_fmt_poly(m.mult[v])}")
        for name in sorted(m.fields):
            comps = ", ".join(_fmt_poly(c) for c in m.fields[name])
            out.append(f"field {name}: {comps}")
    return "\n".join(out) + "\n"
