"""Line-oriented input files describing a pair (g, h) in a Lie bialgebra.

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

Each rule is stated once.  A term (``_terms``) is one rational ('p/q' or an
integer), ``eta`` tokens, each a factor of the parameter, and one factor: a
label or a wedge ``A^B``.  Terms are joined by '+' (no parentheses), summed
per factor and zero sums dropped; the text ``0`` is the empty sum.  An
[algebra] line ``A,B -> terms`` gives the bracket of an unordered pair,
``B,A -> terms`` meaning ``A,B -> -terms``.  A keyed line (``basis:``, a
bracket pair, a [delta] image) given again with another value is an error
at the second line; an equal repeat is accepted.  Labels are names
(``_names``): a letter, then letters, digits and ``_'-``, never ``eta``, so
never with ``^`` or ``+``.  Every error is a ``SpecParseError`` reading
``line N: message``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Optional

from .bialgebra import CocommutatorMap, LieBialgebra
from .exterior import ExteriorElement
from .homspace import HomogeneousSpaceSpec
from .lie import LieAlgebra
from .linalg import frac

_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?")
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_'-]*")


class SpecParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class SpecDocument:
    labels: tuple[str, ...] = ()
    brackets: dict = field(default_factory=dict)   # (i, j) i<j -> {k: Fraction}
    rmatrix: Optional[dict] = None                 # (i, j) i<j -> Fraction
    delta: Optional[dict] = None                   # k -> {(i, j): Fraction}
    subalgebra: Optional[list] = None              # list of coefficient rows

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


def _lookup(index: dict, name: str, lineno: int) -> int:
    try:
        return index[name]
    except KeyError:
        raise SpecParseError(f"unknown label {name!r}", lineno) from None


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
    return _lookup(index, factors[0], lineno), 1


def _wedge(index: dict, factors: list, lineno: int):
    """A^B keyed (i, j) with i < j, B^A giving the sign of the swap."""
    if len(factors) != 1 or factors[0].count("^") != 1:
        raise SpecParseError("wedge terms look like 'coeff A^B'", lineno)
    a, _, b = factors[0].partition("^")
    i, j = _lookup(index, a, lineno), _lookup(index, b, lineno)
    return (min(i, j), max(i, j)), (i < j) - (i > j)


def _names(text: str, lineno: int) -> tuple[str, ...]:
    """The distinct names on a basis line: each matches _NAME (so has no '^'
    or '+') and is not eta."""
    names = tuple(text.split())
    if not names:
        raise SpecParseError("empty basis", lineno)
    if len(set(names)) != len(names):
        raise SpecParseError("duplicate basis name", lineno)
    for name in names:
        if not _NAME.fullmatch(name) or name == "eta":
            raise SpecParseError(f"bad basis name {name!r}", lineno)
    return names


class _Reader:
    """One parse: the document, the label index, and the first line and
    value of each keyed line."""

    def __init__(self, eta: Fraction):
        self.doc, self.eta = SpecDocument(), eta
        self.labels: dict[str, int] = {}
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
            labels = _names(line[len("basis:"):], lineno)
            self.keyed("basis", labels, lineno)
            doc.labels, self.labels = labels, {name: i for i, name in enumerate(labels)}
            return
        index = self.label_index(lineno)
        head, arrow, tail = line.partition("->")
        names = head.split(",")
        if not arrow or len(names) != 2:
            raise SpecParseError("bracket lines look like 'A,B -> terms'", lineno)
        i, j = (_lookup(index, name.strip(), lineno) for name in names)
        if i == j:
            raise SpecParseError("bracket of an element with itself is zero", lineno)
        image = _terms(tail, lineno, self.eta, partial(_label, index))
        if i > j:  # B,A -> terms is A,B -> -terms
            i, j, image = j, i, {k: -c for k, c in image.items()}
        self.keyed(f"bracket pair {doc.labels[i]},{doc.labels[j]}", image, lineno)
        if image:
            doc.brackets[(i, j)] = image

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
        k = _lookup(index, head.strip(), lineno)
        image = _terms(tail, lineno, self.eta, partial(_wedge, index))
        self.keyed(f"delta image of {self.doc.labels[k]}", image, lineno)
        self.doc.delta[k] = image

    def subalgebra(self, line: str, lineno: int) -> None:
        index, zero, one = self.label_index(lineno), Fraction(0), Fraction(1)
        label = partial(_label, index)
        terms = {index[line]: one} if line in index else _terms(line, lineno, self.eta, label)
        self.doc.subalgebra.append([terms.get(i, zero) for i in range(len(index))])


# Each section header: the document attribute it starts, with its empty
# value, and the handler of its lines.  Every section but [algebra] may
# appear once, and [rmatrix] and [delta] exclude each other.
_SECTIONS = {
    "algebra": (None, None, _Reader.algebra),
    "rmatrix": ("rmatrix", dict, _Reader.rmatrix),
    "delta": ("delta", dict, _Reader.delta),
    "subalgebra": ("subalgebra", list, _Reader.subalgebra),
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
    if not doc.labels:
        raise SpecParseError("document defines no algebra", 1)
    return doc


# ---------------------------------------------------------------------------
# serializing (canonical form; parse(serialize(doc)) == doc)
# ---------------------------------------------------------------------------


def _fmt(terms: dict, name) -> str:
    """The terms {key: c} as 'c factor + ...' in key order, ``name(key)``
    giving the factor; '' for no terms."""
    return " + ".join(f"{c} {name(k)}" for k, c in sorted(terms.items()))


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
        out += ["", "[rmatrix]", _fmt(doc.rmatrix, wedge) or "0"]
    if doc.delta is not None:
        out += ["", "[delta]"]
        for k in sorted(doc.delta):
            out.append(f"{labels[k]} -> {_fmt(doc.delta[k], wedge) or '0'}")
    if doc.subalgebra is not None:
        out += ["", "[subalgebra]"]
        for row in doc.subalgebra:
            out.append(_fmt({i: c for i, c in enumerate(row) if c}, label) or f"0 {labels[0]}")
    return "\n".join(out) + "\n"
