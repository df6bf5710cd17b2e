from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from poishom import bialgebra, catalog
from poishom.bialgebra import (
    CocommutatorMap,
    LieBialgebra,
    cocycle_check,
    double_algebra,
    double_bracket,
    double_jacobi_check,
    dual_constants,
    sln_standard_bialgebra,
)
from poishom.exterior import ExteriorElement
from poishom.lie import LieAlgebra

from conftest import rational, valid_bialgebras
from oracles import double_bracket_by_pairings


def wedge2(L, i, j, coeff=1):
    return ExteriorElement.basis(L, (i, j), False, coeff)


# ---------------------------------------------------------------------------
# cocommutators from r-matrices
# ---------------------------------------------------------------------------


def test_cocommutator_so3(so3):
    eta = Fraction(1, 3)
    delta = CocommutatorMap.from_rmatrix(so3, wedge2(so3, 0, 1, eta))
    assert delta.images[0] == wedge2(so3, 0, 2, eta)  # eta J1 ^ J3
    assert delta.images[1] == wedge2(so3, 1, 2, eta)  # eta J2 ^ J3
    assert delta.images[2].is_zero()


def test_cocommutator_zero_rmatrix(so3):
    delta = CocommutatorMap.from_rmatrix(so3, ExteriorElement.zero(so3, 2, False))
    assert delta.is_zero()


def test_cocommutator_sl2_triangular_hyperbolic(sl2_tri):
    eta = Fraction(2)
    delta = CocommutatorMap.from_rmatrix(sl2_tri, wedge2(sl2_tri, 1, 2, eta))  # eta J+^J-
    # delta(J+-) = eta J+- ^ J3 = -eta J3 ^ J+-
    assert delta.images[1] == wedge2(sl2_tri, 0, 1, -eta)
    assert delta.images[2] == wedge2(sl2_tri, 0, 2, -eta)
    assert delta.images[0].is_zero()


def test_cocommutator_stores_only_its_dual(so3):
    """Each constructor stores the dual alone; the images are a view, built
    on first read and kept, with each image's terms in key order."""
    table = {0: {(1, 2): Fraction(1, 3)}, "J3": {(0, 2): 2, (0, 1): -1}}
    for delta in (
        CocommutatorMap.from_rmatrix(so3, wedge2(so3, 0, 1, 2)),
        CocommutatorMap.from_images(so3, table),
        CocommutatorMap.zero(so3),
    ):
        assert "images" not in vars(delta)
        assert set(vars(delta)) == {"algebra", "dual", "r"}
        images = delta.images
        assert vars(delta)["images"] is images
    assert [list(im.terms.items()) for im in images] == [[], [], []]
    images = CocommutatorMap.from_images(so3, table).images
    assert [list(im.terms.items()) for im in images] == [
        [((1, 2), Fraction(1, 3))],
        [],
        [((0, 1), -1), ((0, 2), 2)],
    ]


@pytest.mark.parametrize(
    "table, message",
    [
        ({0: {(1, 0): 1}}, r"bracket key \(1,0\) must satisfy 0 <= i < j < 3"),
        ({0: {(0, 3): 1}}, r"bracket key \(0,3\) must satisfy 0 <= i < j < 3"),
        ({3: {(0, 1): 1}}, r"bracket \(0,1\) has a term on index 3, outside 0..2"),
        ({-1: {(0, 1): 1}}, r"bracket \(0,1\) has a term on index -1, outside 0..2"),
        ({"Z": {(0, 1): 1}}, r"unknown basis label 'Z' \(basis: J1, J2, J3\)"),
        ({1.0: {(0, 1): 1}}, r"bracket \(0,1\) has a term on index 1.0, not an int"),
        ({0: {(0.0, 1): 1}}, r"bracket key \(0.0, 1\) must be a pair of ints"),
        ({0: {(0, 1, 2): 1}}, r"bracket key \(0, 1, 2\) must be a pair of ints"),
        ({0: {("J1", "J2"): 1}}, r"bracket key \('J1', 'J2'\) must be a pair of ints"),
    ],
    ids=[
        "reversed-key", "key-off-basis", "index-3", "index-minus-1", "unknown-label",
        "float-index", "float-key", "triple-key", "label-key",
    ],
)
def test_from_images_rejects_a_key_or_an_image_off_the_basis(so3, table, message):
    with pytest.raises(ValueError, match=message) as err:
        CocommutatorMap.from_images(so3, table)
    assert "\n" not in str(err.value)


# ---------------------------------------------------------------------------
# dual constants
# ---------------------------------------------------------------------------


def test_dual_constants_so3():
    eta = Fraction(5, 2)
    B = catalog.bialgebra("so3-structure", eta)
    d = B.dual
    assert d.bracket(d.basis_vector(0), d.basis_vector(2)) == eta * d.basis_vector(0)
    assert d.bracket(d.basis_vector(1), d.basis_vector(2)) == eta * d.basis_vector(1)
    assert d.bracket(d.basis_vector(0), d.basis_vector(1)).is_zero()


def test_dual_constants_zero_delta_abelian(so3):
    dual = dual_constants(CocommutatorMap.zero(so3))
    assert dual.jacobi_check() is None
    assert all(
        dual.bracket(dual.basis_vector(i), dual.basis_vector(j)).is_zero()
        for i in range(3)
        for j in range(3)
    )


def test_dual_constants_hyperbolic_triangular():
    eta = Fraction(3)
    B = catalog.bialgebra("sl2-hyperbolic-tri", eta)
    d = B.dual
    # [J^3, J^+-] = -eta J^+-, [J^+, J^-] = 0
    assert d.bracket(d.basis_vector(0), d.basis_vector(1)) == -eta * d.basis_vector(1)
    assert d.bracket(d.basis_vector(0), d.basis_vector(2)) == -eta * d.basis_vector(2)
    assert d.bracket(d.basis_vector(1), d.basis_vector(2)).is_zero()


def test_dual_labels(so3):
    B = catalog.bialgebra("so3-structure", 1)
    assert B.dual.labels == ("J^1", "J^2", "J^3")


def test_invalid_dual_reported():
    # delta(J1) = J2 ^ J3 on the rotation algebra is not a cobracket: the
    # bialgebra constructor reports the failed compatibility instead of
    # silently accepting the constants
    so3 = catalog.algebra("so3")
    delta = CocommutatorMap.from_images(so3, {0: {(1, 2): 1}})
    with pytest.raises(ValueError):
        LieBialgebra(so3, delta)


# ---------------------------------------------------------------------------
# cocycle condition
# ---------------------------------------------------------------------------


def test_coboundaries_are_cocycles(so3, sl2_tri, rng):
    for L in (so3, sl2_tri):
        r = ExteriorElement(
            L,
            2,
            {(0, 1): rational(rng), (0, 2): rational(rng), (1, 2): rational(rng)},
            False,
        )
        assert cocycle_check(L, CocommutatorMap.from_rmatrix(L, r)) is None


def test_r2xr2_delta_is_cocycle():
    B = catalog.bialgebra("r2xr2-structure")
    assert cocycle_check(B.g, B.delta) is None


def test_cocycle_violation(so3):
    # altering delta(J3) to J1 ^ J2 breaks the cocycle identity
    eta = Fraction(1)
    delta = CocommutatorMap.from_images(
        so3, {0: {(0, 2): eta}, 1: {(1, 2): eta}, 2: {(0, 1): 1}}
    )
    assert cocycle_check(so3, delta) is not None


# ---------------------------------------------------------------------------
# the double
# ---------------------------------------------------------------------------


def in_double(B, x=None, xi=None):
    """X + xi as a vector of ``B.double``: g's coordinates, then g*'s."""
    x, xi = x or B.g.zero_vector(), xi or B.g.zero_covector()
    return B.double.vector(x.coords + xi.coords)


def by_pairings(B, u, v):
    """The bracket of two vectors of the double by ``double_bracket_by_pairings``."""
    m = B.dim
    split = [(B.g.vector(w.coords[:m]), B.g.covector(w.coords[m:])) for w in (u, v)]
    x, xi = double_bracket_by_pairings(B, *split)
    return in_double(B, x, xi)


def test_double_bracket_restricts_to_summands():
    B = catalog.bialgebra("so3-structure", 1)
    g = B.g
    a, b = in_double(B, x=g.basis_vector(0)), in_double(B, x=g.basis_vector(1))
    out = double_bracket(B, a, b)
    assert out == by_pairings(B, a, b) == in_double(B, x=g.basis_vector(2))
    c, d = in_double(B, xi=g.basis_covector(0)), in_double(B, xi=g.basis_covector(2))
    out = double_bracket(B, c, d)
    assert out == by_pairings(B, c, d) == in_double(B, xi=g.basis_covector(0))  # [J^1,J^3]_* = J^1


def test_double_bracket_mixed_so3():
    B = catalog.bialgebra("so3-structure", 1)
    g = B.g
    a = in_double(B, x=g.basis_vector(2))  # J3
    b = in_double(B, xi=g.basis_covector(0))  # J^1
    out = double_bracket(B, a, b)
    assert out == by_pairings(B, a, b)
    assert out == in_double(B, xi=g.basis_covector(1))  # the coadjoint action produces J^2


def test_double_bracket_matches_reference_on_random_pairs(rng):
    for B in (
        catalog.bialgebra("so3-structure", Fraction(1, 2)),
        catalog.bialgebra("r2xr2-structure"),
    ):
        for _ in range(15):
            u = B.double.vector([rational(rng) for _ in range(2 * B.dim)])
            v = B.double.vector([rational(rng) for _ in range(2 * B.dim)])
            assert double_bracket(B, u, v) == by_pairings(B, u, v)


@pytest.mark.parametrize("name", list(catalog.STRUCTURES))
def test_catalog_structure_refuses_eta_zero_where_it_scales_with_eta(name):
    if catalog.STRUCTURES[name][1] == "images":  # carries no eta
        assert catalog.bialgebra(name, 0).dual._table == catalog.bialgebra(name, 1).dual._table
    else:
        with pytest.raises(ValueError, match="eta must be nonzero"):
            catalog.bialgebra(name, 0)


def test_catalog_entries_and_models_refuse_eta_zero():
    """At eta = 0 a coboundary structure has the zero cocommutator, on which
    no verdict of the catalog is generic."""
    with pytest.raises(ValueError, match="eta must be nonzero"):
        catalog.build_homspace("subgroup-sphere", 0)
    with pytest.raises(ValueError, match="eta must be nonzero"):
        catalog.build_model("su2", 0)
    # an entry without eta and a model that fixes its own still build
    assert catalog.build_homspace("mu-plane", 0).h.dim == 1
    assert catalog.build_model("toda-n3", 0).model._table


def test_double_jacobi_catalog():
    assert double_jacobi_check(catalog.bialgebra("so3-structure", 1)) is None
    assert double_jacobi_check(LieBialgebra.trivial(catalog.algebra("so3"))) is None
    assert double_jacobi_check(catalog.bialgebra("solvable3-structure")) is None


def test_double_jacobi_incompatible_pair():
    # the solvable cobracket transplanted onto the rotation algebra is not a
    # bialgebra; the double must fail the Jacobi identity
    so3 = catalog.algebra("so3")
    delta = CocommutatorMap.from_images(so3, {2: {(0, 1): 1}})
    assert cocycle_check(so3, delta) is not None
    bad = LieBialgebra(so3, delta, check=False)
    first = double_jacobi_check(bad)
    assert first is not None and first == bad.double.jacobi_check()


VALID = valid_bialgebras()


@pytest.mark.parametrize("build", [b for _, b in VALID], ids=[i for i, _ in VALID])
def test_double_jacobi_check_matches_the_full_sweep(build):
    B = build()
    assert double_jacobi_check(B) is None
    assert B.double.jacobi_check() is None


PERTURBED = [
    catalog.bialgebra("so3-structure", 1),
    catalog.bialgebra("sl2-hyperbolic", 1),
    catalog.bialgebra("sl2-parabolic-tri", Fraction(-5, 2)),
    sln_standard_bialgebra(2, 1),
    sln_standard_bialgebra(3, Fraction(1, 3)),
]


def edited(L, key, k, step):
    """L with step added to the int constant ints[key][k], that is step / den
    to the rational one, rebuilt from its rational table."""
    table = {pair: dict(image) for pair, image in L._table.items()}
    image = table.setdefault(key, {})
    image[k] = image.get(k, 0) + Fraction(step, L.den)
    return LieAlgebra(L.labels, table)


def one_constant(data, L):
    i, j = sorted(data.draw(st.sets(st.integers(0, L.dim - 1), min_size=2, max_size=2)))
    k = data.draw(st.integers(0, L.dim - 1))
    return (i, j), k, data.draw(st.integers(-3, 3).filter(bool))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_double_jacobi_check_matches_the_full_sweep_on_perturbed_tables(data):
    """One int constant of g or of g* moved, with no validation: the double
    is built from the two tables, so its pairing stays invariant and the
    4-form decides; the first violating triple must be the full sweep's."""
    B = data.draw(st.sampled_from(PERTURBED))
    if data.draw(st.booleans()):
        g = edited(B.g, *one_constant(data, B.g))
        bad = LieBialgebra(g, CocommutatorMap(g, B.dual), check=False)
    else:
        dual = edited(B.dual, *one_constant(data, B.dual))
        bad = LieBialgebra(B.g, CocommutatorMap(B.g, dual), check=False)
    expected = double_algebra(bad).jacobi_check()
    assert double_jacobi_check(bad) == expected


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_double_jacobi_check_matches_the_full_sweep_on_an_edited_double(data):
    """One int constant of a double moved in its own table, which breaks
    the invariance of the pairing; the gate must send it to the full sweep."""
    A = data.draw(st.sampled_from(PERTURBED))
    B = LieBialgebra(A.g, A.delta, check=False)  # its own cache for the edited double
    D = edited(B.double, *one_constant(data, B.double))
    B.__dict__["double"] = D  # the bialgebra's cached double
    assert double_jacobi_check(B) == D.jacobi_check()


def abelian_r2_double_edited():
    """The double of the abelian R^2 edited to [e_x, e_y] = e_x and
    [e_x, e^y] = e_y.  Both entries lie on g and none on g*, so no two
    entries meet and every 4-set sums to 0, yet (x, y, y^) violates Jacobi;
    the gate finds [e_x, e_y] on e_x but [e_y, e^x] = 0."""
    B = LieBialgebra.trivial(LieAlgebra(["x", "y"], {}))
    return B, LieAlgebra(B.double.labels, {(0, 1): {0: 1}, (0, 3): {1: 1}})


def so3_double_without_j3_in_j1_j2():
    """The so(3) double with [J1, J2] = J3 deleted.  Of the three constants
    of the triple (J1, J2, J^3), X = <[J1, J2], J^3> is now 0, while
    Y = <[J1, J^3], J2> and Z = <[J2, J^3], J1> still satisfy Z = -Y.  Every
    4-set sums to 0, yet (J1, J2, J^1) violates Jacobi: only the second
    cyclic images of Y and Z, which are X up to sign, see it."""
    A = catalog.bialgebra("so3-structure", 1)
    B = LieBialgebra(A.g, A.delta)
    return B, edited(B.double, (0, 1), 2, -1)


@pytest.mark.parametrize("case", [abelian_r2_double_edited, so3_double_without_j3_in_j1_j2])
def test_double_jacobi_check_gate_sees_a_pairing_that_is_not_invariant(case):
    """Only the gate sends these to the full sweep."""
    B, D = case()
    B.__dict__["double"] = D  # the bialgebra's cached double
    first = D.jacobi_check()
    assert first is not None and double_jacobi_check(B) == first


def test_double_algebra_labels():
    D = double_algebra(catalog.bialgebra("so3-structure", 1))
    assert D.labels == ("J1", "J2", "J3", "J^1", "J^2", "J^3")
    assert D.jacobi_check() is None


# ---------------------------------------------------------------------------
# dual modular characters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("eta", [Fraction(1), Fraction(2), Fraction(1, 3)])
def test_dual_modular_characters(eta):
    so3 = catalog.bialgebra("so3-structure", eta)
    assert so3.dual_modular_character() == -2 * eta * so3.g.basis_vector("J3")
    hyp = catalog.bialgebra("sl2-hyperbolic", eta)
    assert hyp.dual_modular_character() == -4 * eta * hyp.g.basis_vector("J12")
    ell = catalog.bialgebra("sl2-elliptic", eta)
    assert ell.dual_modular_character() == -4 * eta * ell.g.basis_vector("P1")
    par = catalog.bialgebra("sl2-parabolic-tri", eta)
    assert par.dual_modular_character() == -2 * eta * par.g.basis_vector("J+")


def test_trivial_bialgebra_character_zero(so3):
    assert LieBialgebra.trivial(so3).dual_modular_character().is_zero()


# ---------------------------------------------------------------------------
# round trips and the special-linear builder
# ---------------------------------------------------------------------------


def test_delta_dual_roundtrip():
    for B in (
        catalog.bialgebra("so3-structure", Fraction(5, 7)),
        catalog.bialgebra("r2xr2-structure"),
        catalog.bialgebra("sl2-elliptic", 2),
    ):
        assert CocommutatorMap(B.g, dual_constants(B.delta)) == B.delta


def test_sl2_from_triangular_split_matches_triangular_constants():
    """For n = 2, the programmatic dual constants agree with the triangular
    basis table under J^3 = D^1, J^+- = S^12 +- Q^12 at unit scaling."""
    B = sln_standard_bialgebra(2, 1)
    d = B.dual
    D1, S12, Q12 = (d.basis_vector(i) for i in range(3))
    Jp, Jm = S12 + Q12, S12 - Q12
    assert d.bracket(D1, Jp) == -1 * Jp
    assert d.bracket(D1, Jm) == -1 * Jm
    assert d.bracket(Jp, Jm).is_zero()


def test_sl3_standard_bialgebra_characters():
    B = sln_standard_bialgebra(3, 1)
    assert B.g.labels[:2] == ("D1", "D2")
    chi = B.dual_modular_character()
    expected = -4 * B.g.basis_vector("D1") - 4 * B.g.basis_vector("D2")
    assert chi == expected  # -4 (E11 - E33) under the split basis
    assert B.g.modular_character().is_zero()


def test_sl3_yang_baxter_and_double():
    B = sln_standard_bialgebra(3, 1)
    assert cocycle_check(B.g, B.delta) is None
    assert double_jacobi_check(B) is None


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("eta", [Fraction(1), Fraction(-5, 2)])
def test_sln_standard_rmatrix_solves_the_modified_yang_baxter_equation(n, eta):
    assert sln_standard_bialgebra(n, eta).yang_baxter == "mcybe"


def test_yang_baxter_is_none_without_an_rmatrix():
    B = catalog.bialgebra("solvable3-structure")
    assert B.delta.r is None and B.yang_baxter is None


def test_yang_baxter_is_computed_once_when_read(monkeypatch):
    calls = []
    square = bialgebra.schouten_square
    monkeypatch.setattr(bialgebra, "schouten_square", lambda g, r: calls.append(r) or square(g, r))
    B = catalog.bialgebra("so3-structure")
    assert calls == []
    assert B.yang_baxter == "mcybe" and B.yang_baxter == "mcybe"
    assert calls == [B.delta.r]


@pytest.mark.parametrize("eta", [Fraction(2), Fraction(1, 3)])
def test_sln_eta_scaling(eta):
    B1 = sln_standard_bialgebra(3, 1)
    B = sln_standard_bialgebra(3, eta)
    scaled = [eta * c for c in B1.dual_modular_character().coords]
    assert list(B.dual_modular_character().coords) == scaled
