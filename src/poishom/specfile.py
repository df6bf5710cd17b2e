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

Each rule is stated once.  A term (``_terms``) is one rational ('p/q' or an
integer), ``eta`` tokens, each a factor of the parameter, and factors: a
label, a wedge ``A^B`` or juxtaposed variable powers ``x^2 y``.  Terms are
joined by '+' (no parentheses), summed per factor and zero sums dropped; the
text ``0`` is the empty sum.  ``A,B -> terms`` gives the bracket of an
unordered pair, in [algebra] and in the model (``_pair``).  A keyed line
(``basis:``, a bracket pair, a [delta] image, ``variables:``, ``base:``,
``poisson_lie:``, ``mult v:``, ``field name:``) given again with another
value is an error at the second line; an equal repeat is accepted.  Labels
and variables are names (``_names``): a letter, then letters, digits and
``_+'-``, never ``eta`` and never with ``^``; a variable has no ``'``, which
marks the second factor in ``mult`` lines.  Every error is a
``SpecParseError`` reading ``line N: message``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Optional

from .bialgebra import CocommutatorMap, LieBialgebra
from .coord import PolynomialPoissonModel
from .exterior import ExteriorElement
from .homspace import HomogeneousSpaceSpec
from .lie import LieAlgebra
from .linalg import frac
from .poly import Polynomial

_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?")
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_+'-]*")


class SpecParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


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
# parsing: the grammar rules, then one handler per section
# ---------------------------------------------------------------------------


def _rational(tok: str, lineno: int) -> Fraction:
    match = _RATIONAL.fullmatch(tok)
    if match is None:
        raise SpecParseError(f"expected a rational literal, got {tok!r}", lineno)
    if match[1] is None:
        return Fraction(int(tok))
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise SpecParseError(f"zero denominator in {tok!r}", lineno) from None


def _lookup(index: dict, name: str, what: str, lineno: int) -> int:
    try:
        return index[name]
    except KeyError:
        raise SpecParseError(f"unknown {what} {name!r}", lineno) from None


def _terms(text: str, lineno: int, eta: Fraction, key) -> dict:
    """The '+'-separated terms 'c [eta...] factor...' of ``text`` (the text
    '0' being the empty sum), summed per key and without zero sums.
    ``key(factors, lineno)`` reads a term's factors as (key, sign): the sign
    multiplies the term, 0 dropping it."""
    if text.strip() == "0":
        return {}
    out: dict = {}
    for chunk in text.split("+"):
        coeff, etas, factors = None, 0, []
        for tok in chunk.split():
            if tok[0] in "+-0123456789":
                if coeff is not None:
                    raise SpecParseError("two numeric literals in one term", lineno)
                coeff = _rational(tok, lineno)
            elif tok == "eta":
                etas += 1
            else:
                factors.append(tok)
        if coeff is None:
            msg = "terms need an explicit rational coefficient" if chunk.strip() else "empty term"
            raise SpecParseError(msg, lineno)
        k, sign = key(factors, lineno)
        if not sign:
            continue
        if etas:
            coeff *= eta**etas
        if sign < 0:
            coeff = -coeff
        out[k] = out[k] + coeff if k in out else coeff
    return {k: c for k, c in out.items() if c}


def _label(index: dict, factors: list, lineno: int):
    if len(factors) != 1:
        raise SpecParseError("each term must name exactly one basis vector", lineno)
    return _lookup(index, factors[0], "label", lineno), 1


def _wedge(index: dict, factors: list, lineno: int):
    """A^B keyed (i, j) with i < j, B^A giving the sign of the swap."""
    if len(factors) != 1 or factors[0].count("^") != 1:
        raise SpecParseError("wedge terms look like 'coeff A^B'", lineno)
    a, _, b = factors[0].partition("^")
    i, j = _lookup(index, a, "label", lineno), _lookup(index, b, "label", lineno)
    return (min(i, j), max(i, j)), (i < j) - (i > j)


def _monomial(index: dict, factors: list, lineno: int):
    expo = [0] * len(index)
    for f in factors:
        name, hat, power = f.partition("^")
        if hat and not (power.isascii() and power.isdigit()):
            raise SpecParseError(f"exponent must be an integer in {f!r}", lineno)
        expo[_lookup(index, name, "variable", lineno)] += int(power) if hat else 1
    return tuple(expo), 1


def _pair(line: str, index: dict, what: str, lineno: int, eta: Fraction, key):
    """An 'A,B -> terms' line as ((i, j), terms) with i < j, the terms of
    B,A negated."""
    head, arrow, tail = line.partition("->")
    names = head.split(",")
    if not arrow or len(names) != 2:
        raise SpecParseError("bracket lines look like 'A,B -> terms'", lineno)
    i, j = (_lookup(index, name.strip(), what, lineno) for name in names)
    if i == j:
        raise SpecParseError("bracket of an element with itself is zero", lineno)
    terms = _terms(tail, lineno, eta, key)
    return ((i, j), terms) if i < j else ((j, i), {k: -c for k, c in terms.items()})


def _names(text: str, what: str, lineno: int, forbidden: str) -> tuple[str, ...]:
    """The distinct names on a basis or variables line: each matches _NAME
    (so has no '^'), is not eta and has none of the ``forbidden`` characters."""
    names = tuple(text.split())
    if not names:
        raise SpecParseError(f"empty {what}", lineno)
    if len(set(names)) != len(names):
        raise SpecParseError(f"duplicate {what} name", lineno)
    for name in names:
        if not _NAME.fullmatch(name) or name == "eta" or any(c in name for c in forbidden):
            raise SpecParseError(f"bad {what} name {name!r}", lineno)
    return names


class _Reader:
    """One parse: the document, the label and variable indices, and the
    first line and value of each keyed line."""

    def __init__(self, eta: Fraction):
        self.doc, self.eta = SpecDocument(), eta
        self.labels: dict[str, int] = {}
        self.variables: dict[str, int] = {}
        self.seen: dict[str, tuple[int, object]] = {}

    def keyed(self, key: str, value, lineno: int) -> None:
        first = self.seen.get(key)
        if first is None:
            self.seen[key] = (lineno, value)
        elif first[1] != value:
            raise SpecParseError(
                f"{key} given twice with inconsistent values (first at line {first[0]})", lineno
            )

    def label_index(self, lineno: int) -> dict:
        if not self.labels:
            raise SpecParseError("an [algebra] section with a basis must come first", lineno)
        return self.labels

    def algebra(self, line: str, lineno: int) -> None:
        doc = self.doc
        if line.startswith("basis:"):
            labels = _names(line[len("basis:"):], "basis", lineno, "")
            self.keyed("basis", labels, lineno)
            doc.labels, self.labels = labels, {name: i for i, name in enumerate(labels)}
            return
        index = self.label_index(lineno)
        key, image = _pair(line, index, "label", lineno, self.eta, partial(_label, index))
        self.keyed(f"bracket pair {doc.labels[key[0]]},{doc.labels[key[1]]}", image, lineno)
        if image:
            doc.brackets[key] = image

    def rmatrix(self, line: str, lineno: int) -> None:
        index, r = self.label_index(lineno), self.doc.rmatrix
        for k, c in _terms(line, lineno, self.eta, partial(_wedge, index)).items():
            r[k] = r[k] + c if k in r else c
        self.doc.rmatrix = {k: c for k, c in r.items() if c}

    def delta(self, line: str, lineno: int) -> None:
        index = self.label_index(lineno)
        head, arrow, tail = line.partition("->")
        if not arrow:
            raise SpecParseError("expected 'X -> wedge terms'", lineno)
        k = _lookup(index, head.strip(), "label", lineno)
        image = _terms(tail, lineno, self.eta, partial(_wedge, index))
        self.keyed(f"delta image of {self.doc.labels[k]}", image, lineno)
        self.doc.delta[k] = image

    def subalgebra(self, line: str, lineno: int) -> None:
        index, zero, one = self.label_index(lineno), Fraction(0), Fraction(1)
        label = partial(_label, index)
        terms = {index[line]: one} if line in index else _terms(line, lineno, self.eta, label)
        self.doc.subalgebra.append([terms.get(i, zero) for i in range(len(index))])

    def coordinate_model(self, line: str, lineno: int) -> None:
        m, eta = self.doc.model, self.eta
        head, colon, tail = line.partition(":")
        word, _, name = head.strip().partition(" ")
        head, name = head.strip(), name.strip()
        if colon and head == "variables":
            names = _names(tail, "variable", lineno, "'")
            self.keyed("variables", names, lineno)
            m.variables, self.variables = names, {v: i for i, v in enumerate(names)}
            return
        if not self.variables:
            raise SpecParseError("the model needs a variables line first", lineno)
        poly = partial(_monomial, self.variables)
        if not colon:
            if "->" not in line:
                raise SpecParseError("unrecognized model line", lineno)
            key, terms = _pair(line, self.variables, "variable", lineno, eta, poly)
            self.keyed(f"model bracket pair {m.variables[key[0]]},{m.variables[key[1]]}",
                       terms, lineno)
            m.brackets[key] = Polynomial(m.variables, terms)
        elif head == "base":
            vals = tail.split()
            if len(vals) != len(m.variables):
                raise SpecParseError("base point has the wrong length", lineno)
            point = tuple(_rational(v, lineno) for v in vals)
            self.keyed("base", point, lineno)
            m.base_point = point
        elif head == "poisson_lie":
            flag = tail.strip()
            if flag not in ("yes", "no"):
                raise SpecParseError("poisson_lie takes 'yes' or 'no'", lineno)
            self.keyed("poisson_lie", flag, lineno)
            m.poisson_lie = flag == "yes"
        elif head == "constraint":
            m.constraints.append(Polynomial(m.variables, _terms(tail, lineno, eta, poly)))
        elif word == "mult":
            _lookup(self.variables, name, "variable", lineno)
            names = m.variables + tuple(f"{v}'" for v in m.variables)
            index = {v: i for i, v in enumerate(names)}
            terms = _terms(tail, lineno, eta, partial(_monomial, index))
            self.keyed(f"mult {name}", terms, lineno)
            m.mult[name] = Polynomial(names, terms)
        elif word == "field":
            comps = tail.split(",")
            if len(comps) != len(m.variables):
                raise SpecParseError("field needs one component per variable", lineno)
            value = tuple(Polynomial(m.variables, _terms(c, lineno, eta, poly)) for c in comps)
            self.keyed(f"field {name}", value, lineno)
            m.fields[name] = value
        else:
            raise SpecParseError("unrecognized model line", lineno)


# Each section header: the document attribute it starts, with its empty
# value, and the handler of its lines.  Every section but [algebra] may
# appear once, and [rmatrix] and [delta] exclude each other.
_SECTIONS = {
    "algebra": (None, None, _Reader.algebra),
    "rmatrix": ("rmatrix", dict, _Reader.rmatrix),
    "delta": ("delta", dict, _Reader.delta),
    "subalgebra": ("subalgebra", list, _Reader.subalgebra),
    "coordinate_model": ("model", CoordinateModelDoc, _Reader.coordinate_model),
}


def parse_spec_text(text: str, eta=1) -> SpecDocument:
    reader = _Reader(frac(eta))
    doc, handler = reader.doc, None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line[0] == "[" and line[-1] == "]":
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise SpecParseError(f"unknown section {section!r}", lineno)
            attr, empty, handler = _SECTIONS[section]
            if attr is not None:
                if getattr(doc, attr) is not None:
                    raise SpecParseError(f"[{section}] section given twice", lineno)
                if section in ("rmatrix", "delta") and (doc.rmatrix, doc.delta) != (None, None):
                    raise SpecParseError("give an [rmatrix] or a [delta] section, not both", lineno)
                setattr(doc, attr, empty())
        elif handler is None:
            raise SpecParseError("content before the first section header", lineno)
        else:
            handler(reader, line, lineno)
    if not doc.labels and doc.model is None:
        raise SpecParseError("document defines neither an algebra nor a model", 1)
    return doc


# ---------------------------------------------------------------------------
# serializing (canonical form; parse(serialize(doc)) == doc)
# ---------------------------------------------------------------------------


def _fmt(terms: dict, name, reverse: bool = False) -> str:
    """The terms {key: c} as 'c factors + ...' in key order, ``name(key)``
    giving the factors ('' for a constant); '' for no terms."""
    return " + ".join(
        f"{c} {f}" if (f := name(k)) else str(c)
        for k, c in sorted(terms.items(), reverse=reverse)
    )


def _fmt_poly(p: Polynomial) -> str:
    def monomial(expo) -> str:
        return " ".join(v if k == 1 else f"{v}^{k}" for v, k in zip(p.vars, expo) if k)

    return _fmt(p.terms, monomial, reverse=True) or "0"


def serialize_spec(doc: SpecDocument) -> str:
    labels, out = doc.labels, []
    label = labels.__getitem__

    def wedge(key) -> str:
        return f"{labels[key[0]]}^{labels[key[1]]}"

    if labels:
        out += ["[algebra]", "basis: " + " ".join(labels)]
        for (i, j) in sorted(doc.brackets):
            out.append(f"{labels[i]},{labels[j]} -> {_fmt(doc.brackets[(i, j)], label) or '0'}")
    if doc.rmatrix is not None:
        out += ["", "[rmatrix]", _fmt(doc.rmatrix, wedge) or f"0 {wedge((0, 1))}"]
    if doc.delta is not None:
        out += ["", "[delta]"]
        for k in sorted(doc.delta):
            out.append(f"{labels[k]} -> {_fmt(doc.delta[k], wedge) or '0'}")
    if doc.subalgebra is not None:
        out += ["", "[subalgebra]"]
        for row in doc.subalgebra:
            out.append(_fmt({i: c for i, c in enumerate(row) if c}, label) or f"0 {labels[0]}")
    if doc.model is not None:
        m = doc.model
        out += ["", "[coordinate_model]", "variables: " + " ".join(m.variables)]
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
            out.append(f"field {name}: " + ", ".join(_fmt_poly(c) for c in m.fields[name]))
    return "\n".join(out) + "\n"
