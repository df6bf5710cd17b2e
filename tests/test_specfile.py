import io
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings, strategies as st

from poishom import catalog
from poishom.cli import run
from poishom.homspace import classification_row
from poishom.specfile import SpecDocument, SpecParseError, parse_spec_text, serialize_spec

MU_PLANE = """\
# two-dimensional quotient of the three-dimensional solvable group
[algebra]
basis: X1 X2 X3
X1,X2 -> 0
X1,X3 -> 1 X2
X2,X3 -> -1 X2

[delta]
X3 -> 1 X1^X2

[subalgebra]
X1
"""

SPHERE = """\
[algebra]
basis: J1 J2 J3
J1,J2 -> 1 J3
J2,J3 -> 1 J1
J3,J1 -> 1 J2

[rmatrix]
1 eta J1^J2

[subalgebra]
J3
"""

# a coordinate-model section, which the format does not have: catalog
# models carry their Hamiltonian, start point and frames in code
MODEL = """\
[coordinate_model]
variables: x1 x2 x3
base: 1 0 0
"""


def test_parse_mu_plane_matches_catalog():
    doc = parse_spec_text(MU_PLANE)
    assert doc.labels == ("X1", "X2", "X3")
    assert doc.brackets == {(0, 2): {1: Fraction(1)}, (1, 2): {1: Fraction(-1)}}
    S = doc.build_homspace("mu-plane")
    got = classification_row(S)
    want = classification_row(catalog.build_homspace("mu-plane"))
    assert got == want


def test_parse_sphere_with_eta():
    for eta in (Fraction(1), Fraction(2), Fraction(1, 3)):
        doc = parse_spec_text(SPHERE, eta=eta)
        assert doc.rmatrix == {(0, 1): eta}
        S = doc.build_homspace("sphere")
        row = classification_row(S)
        assert row["mu_status"] == "fails_condition_ii"
        assert row["subgroup_type"] == "poisson_lie_subgroup"


def test_empty_bracket_block_is_abelian():
    doc = parse_spec_text("[algebra]\nbasis: a b c\n")
    L = doc.build_algebra()
    assert L.jacobi_check() is None
    assert all(
        L.bracket(L.basis_vector(i), L.basis_vector(j)).is_zero()
        for i in range(3)
        for j in range(3)
    )


def test_asymmetry_conflict_rejected():
    text = "[algebra]\nbasis: a b c\na,b -> 1 c\nb,a -> 1 c\n"
    with pytest.raises(SpecParseError, match="inconsistent"):
        parse_spec_text(text)


def test_consistent_reversed_pair_accepted():
    text = "[algebra]\nbasis: a b c\na,b -> 1 c\nb,a -> -1 c\n"
    doc = parse_spec_text(text)
    assert doc.brackets == {(0, 1): {2: Fraction(1)}}


def test_unknown_label_diagnostic():
    text = "[algebra]\nbasis: a b\na,q -> 1 a\n"
    with pytest.raises(SpecParseError, match="line 3.*unknown label"):
        parse_spec_text(text)


def test_non_rational_literal_rejected():
    text = "[algebra]\nbasis: a b\na,b -> 0.5 a\n"
    with pytest.raises(SpecParseError, match="line 3: expected a rational"):
        parse_spec_text(text)


def test_duplicate_label_rejected():
    with pytest.raises(SpecParseError, match="duplicate"):
        parse_spec_text("[algebra]\nbasis: a a\n")


def test_content_before_section_rejected():
    with pytest.raises(SpecParseError, match="before the first section"):
        parse_spec_text("basis: a b\n")


def test_round_trip_identity():
    for text in (MU_PLANE, SPHERE):
        doc = parse_spec_text(text)
        again = parse_spec_text(serialize_spec(doc))
        assert again == doc
        # serialization is canonical: a second pass is bit-identical
        assert serialize_spec(again) == serialize_spec(doc)


def test_parse_spec_from_file(tmp_path):
    path = tmp_path / "sphere.spec"
    path.write_text(SPHERE, encoding="utf-8")
    doc = parse_spec_text(path.read_text(encoding="utf-8"), eta=Fraction(2))
    assert doc.rmatrix == {(0, 1): Fraction(2)}


def test_basis_permuted_variant_same_verdicts():
    permuted = """\
[algebra]
basis: X2 X1 X3
X1,X3 -> 1 X2
X2,X3 -> -1 X2

[delta]
X3 -> 1 X1^X2

[subalgebra]
X1
"""
    base = classification_row(parse_spec_text(MU_PLANE).build_homspace("q"))
    row = classification_row(parse_spec_text(permuted).build_homspace("q"))
    for key in ("coisotropic", "subgroup_type", "chi_h0_zero", "invariant_volume",
                "semi_invariant", "mu_status"):
        assert row[key] == base[key]


def test_second_basis_line_rejected():
    # brackets and labels already read index the first basis
    text = SPHERE.replace("J1,J2 -> 1 J3\n", "J1,J2 -> 1 J3\nbasis: X1\n")
    with pytest.raises(SpecParseError, match="line 4.*basis given twice"):
        parse_spec_text(text)


@pytest.mark.parametrize(
    "text, line, message",
    [
        # the r-matrix section would be built and the cocommutator dropped
        (SPHERE.replace("[subalgebra]", "[delta]\nJ3 -> 1 J1^J2\n\n[subalgebra]"), 10, "not both"),
        (MU_PLANE.replace("[subalgebra]", "[rmatrix]\n1 X1^X2\n\n[subalgebra]"), 11, "not both"),
        # a repeated header would start its section afresh
        (MU_PLANE + "[delta]\n", 13, r"\[delta\] section given twice"),
        (SPHERE + "[rmatrix]\n1 J2^J3\n", 12, r"\[rmatrix\] section given twice"),
        (SPHERE + "[subalgebra]\nJ1\n", 12, r"\[subalgebra\] section given twice"),
        # no coordinate-model section exists: its first header is refused
        (MODEL + MODEL, 1, "unknown section 'coordinate_model'"),
    ],
    ids=["delta-after-rmatrix", "rmatrix-after-delta", "delta", "rmatrix", "subalgebra", "model"],
)
def test_conflicting_section_headers_rejected(tmp_path, capsys, text, line, message):
    with pytest.raises(SpecParseError, match=f"line {line}:.*{message}"):
        parse_spec_text(text)
    path = tmp_path / "input.spec"
    path.write_text(text, encoding="utf-8")
    assert run(["analyze", str(path), "--file"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"input error: line {line}:")


def test_coordinate_model_header_is_an_unknown_section(tmp_path, capsys):
    text = MU_PLANE + MODEL
    with pytest.raises(SpecParseError, match="^line 13: unknown section 'coordinate_model'$"):
        parse_spec_text(text)
    path = tmp_path / "model.spec"
    path.write_text(text, encoding="utf-8")
    assert run(["analyze", str(path), "--file"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: line 13: unknown section 'coordinate_model'\n"


# ---------------------------------------------------------------------------
# mutated spec text: every input is parsed or refused with one input error
# ---------------------------------------------------------------------------

_FUZZ_TOKENS = (
    "", "0", "-1", "1/2", "1/0", "0/0", "+-1", "2 3", "eta", "eta eta", "+", "^", ",", ":",
    "#", "[", "]", "->", "X1 ->", "-> 1 X1", "X9", "X1^X1", "J1^J2^J3", "1 X1 + 1 X1", "0 X1",
    "X1,X1 ->", "X1,X2 -> 1 X1^X2", "X3 -> 0", "X3 -> 1 X3^X3", "basis:", "basis: X1",
    "basis: X1 X2 X3 X4", "[algebra]", "[delta]", "[rmatrix]", "[subalgebra]",
    "[coordinate_model]", "X1^", "X1^X2 + 1",
)


@st.composite
def _mutated_specs(draw):
    lines = draw(st.sampled_from([MU_PLANE, SPHERE])).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["delete", "duplicate", "replace token", "insert", "edit"]))
        i = draw(st.integers(0, len(lines) - 1))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, draw(st.sampled_from(lines)))
        elif op == "replace token":
            toks = lines[i].split(" ")
            toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(_FUZZ_TOKENS))
            lines[i] = " ".join(toks)
        elif op == "insert":
            lines.insert(i, draw(st.sampled_from(_FUZZ_TOKENS)))
        else:
            j = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:j] + draw(st.sampled_from("0/-+^,:#[] eXJx\t")) + lines[i][j + 1:]
        if not lines:
            lines = [""]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(_mutated_specs())
@example(SPHERE.replace("J1,J2 -> 1 J3\n", "J1,J2 -> 1 J3\nbasis: X1\n"))
@example(MU_PLANE.replace("[subalgebra]\nX1", "[subalgebra]\n1/0 X1"))
def test_mutated_spec_text_exits_cleanly(text):
    try:
        parse_spec_text(text)
    except SpecParseError:
        pass
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.spec")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with redirect_stdout(out), redirect_stderr(err):
            code = run(["analyze", path, "--file"])
    errors = err.getvalue().splitlines()
    event(f"exit {code}")
    assert code in (0, 1, 2)
    if code == 2:
        assert len(errors) == 1 and errors[0].startswith("input error:")
        assert out.getvalue() == ""
    else:
        assert errors == [] and out.getvalue()


# ---------------------------------------------------------------------------
# keyed lines: a second line with another value is refused at its line
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text, line, key",
    [
        # the second image would silently replace the first (delta = 0)
        (MU_PLANE.replace("X3 -> 1 X1^X2\n", "X3 -> 1 X1^X2\nX3 -> 0\n"), 10, "delta image of X3"),
        # X3,X2 -> -1 X2 reads as X2,X3 -> 1 X2, against line 6
        (MU_PLANE.replace("-1 X2\n", "-1 X2\nX3,X2 -> -1 X2\n"), 7, "bracket pair X2,X3"),
    ],
    ids=["delta", "bracket"],
)
def test_keyed_line_given_twice_with_another_value_rejected(text, line, key):
    with pytest.raises(SpecParseError, match=f"^line {line}: {key} given twice with inconsistent"):
        parse_spec_text(text)


def test_conflicting_delta_image_is_one_input_error(tmp_path, capsys):
    path = tmp_path / "delta.spec"
    path.write_text(MU_PLANE.replace("X3 -> 1 X1^X2\n", "X3 -> 1 X1^X2\nX3 -> 0\n"), "utf-8")
    assert run(["analyze", str(path), "--file"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "input error: line 10: delta image of X3 given twice with inconsistent values "
        "(first at line 9)\n"
    )


def test_equal_keyed_lines_accepted():
    repeated = MU_PLANE.replace("basis: X1 X2 X3\n", "basis: X1 X2 X3\nbasis: X1 X2 X3\n")
    repeated = repeated.replace("X3 -> 1 X1^X2\n", "X3 -> 1 X1^X2\nX3 -> 1/2 X1^X2 + -1/2 X2^X1\n")
    assert parse_spec_text(repeated) == parse_spec_text(MU_PLANE)


# ---------------------------------------------------------------------------
# one name rule for basis labels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, name",
    [
        # eta always means the parameter: '1 eta' would read as 1 * eta
        ("[algebra]\nbasis: a eta\n", "eta"),
        # '^' is a wedge: 'a^b' would read as a wedge b
        ("[algebra]\nbasis: a a^b\n", "a^b"),
        # '+' joins terms: 'J3,J+ -> 2 J+' would read J+ as J and an empty term
        ("[algebra]\nbasis: J3 J+ J-\nJ3,J+ -> 2 J+\n", "J+"),
    ],
    ids=["label-eta", "label-wedge", "label-plus"],
)
def test_reserved_names_rejected(text, name):
    with pytest.raises(SpecParseError, match=f"^line 2: bad .* name {re.escape(repr(name))}"):
        parse_spec_text(text)


def test_plus_in_a_label_is_refused_on_the_basis_line(tmp_path, capsys):
    path = tmp_path / "sl2.spec"
    path.write_text("[algebra]\nbasis: J3 J+ J-\nJ3,J+ -> 2 J+\n", "utf-8")
    assert run(["analyze", str(path), "--file"]) == 2
    assert capsys.readouterr().err == "input error: line 2: bad basis name 'J+'\n"


def test_one_label_empty_rmatrix_round_trips():
    doc = parse_spec_text("[algebra]\nbasis: a\n[rmatrix]\n")
    text = serialize_spec(doc)
    assert text == "[algebra]\nbasis: a\n\n[rmatrix]\n0\n"
    assert parse_spec_text(text) == doc


def test_primed_basis_label_accepted():
    doc = parse_spec_text("[algebra]\nbasis: a a'\na,a' -> 1 a\n")
    assert doc.labels == ("a", "a'") and doc.brackets == {(0, 1): {0: Fraction(1)}}


# ---------------------------------------------------------------------------
# generated documents round-trip through serialize_spec
# ---------------------------------------------------------------------------

_COEFFS = st.builds(Fraction, st.integers(-5, -1) | st.integers(1, 5), st.integers(1, 4))


def _sparse(keys, min_size=0):
    return st.dictionaries(st.sampled_from(keys), _COEFFS, min_size=min_size, max_size=3)


@st.composite
def _spec_documents(draw):
    n = draw(st.integers(1, 4))
    labels = tuple(draw(st.lists(st.sampled_from(["X1", "X2", "J3", "a", "b'", "Q_12", "e-1"]),
                                 min_size=n, max_size=n, unique=True)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    structure = draw(st.sampled_from(["none", "rmatrix"] + ["delta"] * bool(pairs)))
    return SpecDocument(
        labels=labels,
        brackets=draw(st.dictionaries(st.sampled_from(pairs), _sparse(range(n), 1), max_size=4))
        if pairs else {},
        rmatrix=(draw(_sparse(pairs)) if pairs else {}) if structure == "rmatrix" else None,
        delta=draw(st.dictionaries(st.sampled_from(range(n)), _sparse(pairs)))
        if structure == "delta" else None,
        subalgebra=draw(st.none() | st.lists(st.lists(_COEFFS | st.just(Fraction(0)),
                                                      min_size=n, max_size=n), max_size=3)),
    )


def _with_eta(text: str) -> str:
    """The [rmatrix] line with each coefficient c written 'c eta'."""
    lines = text.splitlines()
    if "[rmatrix]" in lines:
        i = lines.index("[rmatrix]") + 1
        lines[i] = " + ".join(t.replace(" ", " eta ", 1) for t in lines[i].split(" + "))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(_spec_documents(), st.sampled_from([Fraction(1), Fraction(2), Fraction(-5, 2)]))
def test_generated_documents_round_trip(doc, eta):
    """parse(serialize(doc)) == doc at any eta, serialize is idempotent, and
    'c eta' r-matrix terms read as c times eta."""
    text = serialize_spec(doc)
    sections = ["algebra"] + [
        s for s in ("rmatrix", "delta", "subalgebra") if getattr(doc, s) is not None
    ]
    event(" ".join(sections))
    again = parse_spec_text(text, eta=eta)
    assert again == doc
    assert serialize_spec(again) == text
    if doc.rmatrix is not None:
        scaled = parse_spec_text(_with_eta(text), eta=eta)
        assert scaled.rmatrix == {k: eta * c for k, c in doc.rmatrix.items()}
