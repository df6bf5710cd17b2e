from fractions import Fraction

import pytest

from poishom.lie import LieAlgebra, is_closed_one_form, restrict_covector
from poishom import catalog

from conftest import random_vector
from oracles import adjoint_matrix


def test_bracket_so3(so3):
    J1, J2, J3 = (so3.basis_vector(i) for i in range(3))
    assert so3.bracket(J1, J2) == J3
    assert so3.bracket(J2, J3) == J1
    assert so3.bracket(J3, J1) == J2


@pytest.mark.parametrize("k", [2, 5, -1])
def test_bracket_image_off_the_basis_is_rejected(k):
    with pytest.raises(ValueError, match=rf"bracket \(0,1\) has a term on index {k}, outside 0..1"):
        LieAlgebra(("a", "b"), {(0, 1): {k: 1}})


@pytest.mark.parametrize(
    "brackets, message",
    [
        ({(0, 1, 2): {0: 1}}, r"bracket key \(0, 1, 2\) must be a pair of ints"),
        ({("a", "b"): {0: 1}}, r"bracket key \('a', 'b'\) must be a pair of ints"),
        ({(0.0, 1): {0: 1}}, r"bracket key \(0.0, 1\) must be a pair of ints"),
        ({0: {0: 1}}, r"bracket key 0 must be a pair of ints"),
        ({(0, 1): {2.0: 1}}, r"bracket \(0,1\) has a term on index 2.0, not an int"),
        ({(0, 1): {"a": 1}}, r"bracket \(0,1\) has a term on index 'a', not an int"),
    ],
    ids=["triple", "str-pair", "float-pair", "int", "float-index", "str-index"],
)
def test_bracket_key_that_is_not_an_int_is_rejected(brackets, message):
    with pytest.raises(ValueError, match=message) as err:
        LieAlgebra(("a", "b", "c"), brackets)
    assert "\n" not in str(err.value)


def test_unknown_label_is_named(so3):
    message = r"unknown basis label 'Z' \(basis: J1, J2, J3\)"
    for read in (so3.index, so3.basis_vector, lambda z: so3.subalgebra([z])):
        with pytest.raises(ValueError, match=message):
            read("Z")


def test_bracket_abelian():
    ab = LieAlgebra(("X1", "X2", "X3"), {})
    assert ab.bracket(ab.basis_vector(0), ab.basis_vector(1)).is_zero()


def test_bracket_sl2_triangular(sl2_tri):
    J3 = sl2_tri.basis_vector("J3")
    Jp = sl2_tri.basis_vector("J+")
    assert sl2_tri.bracket(J3, Jp) == 2 * Jp


def test_bracket_dimension_mismatch(so3, solvable3):
    with pytest.raises(ValueError):
        so3.bracket(so3.basis_vector(0), solvable3.basis_vector(0))


def test_jacobi_ok(so3, solvable3):
    assert so3.jacobi_check() is None
    assert solvable3.jacobi_check() is None
    assert LieAlgebra(("a", "b"), {}).jacobi_check() is None


def test_rescaled_so3_still_satisfies_jacobi():
    # doubling one structure constant keeps every double bracket on the same
    # generator, so the Jacobiator still cancels
    rescaled = LieAlgebra(
        ("J1", "J2", "J3"),
        {(0, 1): {2: 2}, (1, 2): {0: 1}, (0, 2): {1: -1}},
    )
    assert rescaled.jacobi_check() is None


def test_jacobi_violation_on_perturbed_so3():
    # [J1,J2] = J3 + J1 breaks the identity: the Jacobiator on (J1,J2,J3)
    # picks up [J1,J3] = -J2
    bad = LieAlgebra(
        ("J1", "J2", "J3"),
        {(0, 1): {2: 1, 0: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
    )
    assert bad.jacobi_check() == (0, 1, 2)


def test_adjoint_matrix_so3(so3):
    ad = adjoint_matrix(so3, so3.basis_vector("J3"))
    # ad_{J3} J1 = J2, ad_{J3} J2 = -J1
    assert ad == [
        [Fraction(0), Fraction(-1), Fraction(0)],
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0)],
    ]


def test_adjoint_matrix_abelian():
    ab = LieAlgebra(("a", "b"), {})
    assert adjoint_matrix(ab, ab.vector([3, -2])) == [[0, 0], [0, 0]]


def test_adjoint_trace_solvable3(solvable3):
    # ad_{X3}: X1 -> -X2, X2 -> X2; the trace picks up the +1 from X2
    ad = adjoint_matrix(solvable3, solvable3.basis_vector("X3"))
    assert sum(ad[i][i] for i in range(3)) == 1


def test_modular_character_values(so3, solvable3, r2xr2):
    assert so3.modular_character().is_zero()
    assert list(solvable3.modular_character().coords) == [0, 0, 1]
    assert list(r2xr2.modular_character().coords) == [0, 0, 0, 1]


def test_is_subalgebra(so3):
    assert so3.is_subalgebra([so3.basis_vector("J3")])
    assert not so3.is_subalgebra([so3.basis_vector("J1"), so3.basis_vector("J2")])
    with pytest.raises(ValueError):
        so3.is_subalgebra([so3.basis_vector("J1"), 2 * so3.basis_vector("J1")])


def test_dual_subgroup_sphere_annihilator_is_subalgebra():
    B = catalog.bialgebra("so3-structure", 1)
    h = B.g.subalgebra(["J3"])
    ann = B.g.annihilator(h)
    assert [list(x.coords) for x in ann] == [[1, 0, 0], [0, 1, 0]]
    dual_vectors = [B.dual.vector(x.coords) for x in ann]
    assert B.dual.is_subalgebra(dual_vectors)


def test_annihilator_dimensions(so3):
    h = so3.subalgebra(["J3"])
    ann = so3.annihilator(h)
    assert len(ann) == 2
    assert all(xi(v).numerator == 0 for xi in ann for v in h.basis)
    full = so3.subalgebra(["J1", "J2", "J3"])
    assert so3.annihilator(full) == []


def test_annihilator_sl2_boost():
    L = catalog.algebra("sl2-boost")
    h = L.subalgebra(["J12"])
    ann = L.annihilator(h)
    assert [list(x.coords) for x in ann] == [[1, 0, 0], [0, 1, 0]]  # P^1, P^2


def test_restrict_covector(solvable3, r2xr2):
    chi = solvable3.modular_character()
    h = solvable3.subalgebra(["X1"])
    assert restrict_covector(chi, h) == (0,)
    assert restrict_covector(solvable3.zero_covector(), h) == (0,)
    chi4 = r2xr2.modular_character()
    h4 = r2xr2.subalgebra(["X4"])
    assert restrict_covector(chi4, h4) == (1,)


def test_is_closed_one_form(so3, r2xr2):
    assert is_closed_one_form(r2xr2, r2xr2.basis_covector("X4"))
    ab = LieAlgebra(("a", "b"), {})
    assert is_closed_one_form(ab, ab.covector([2, -5]))
    # J^1([J2,J3]) = 1 != 0
    assert not is_closed_one_form(so3, so3.basis_covector("J1"))


def test_modular_character_always_closed(so3, solvable3, r2xr2, sl2_tri):
    for L in (so3, solvable3, r2xr2, sl2_tri, catalog.bialgebra("sl3-standard-structure", 1).g):
        assert is_closed_one_form(L, L.modular_character())


def test_bracket_bilinear_antisymmetric(so3, rng):
    for _ in range(25):
        u, v = random_vector(so3, rng), random_vector(so3, rng)
        assert (so3.bracket(u, v) + so3.bracket(v, u)).is_zero()
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert so3.bracket(c * u, v) == c * so3.bracket(u, v)


def test_subalgebra_induced_structure(so3):
    h = so3.subalgebra([so3.basis_vector("J3")])
    assert h.modular_character_values() == (0,)
    sub = so3.subalgebra(["J1", "J2", "J3"]).induced_algebra()
    assert sub.jacobi_check() is None


def test_structure_constant_antisymmetry_by_construction(solvable3):
    assert solvable3.bracket_basis(0, 2) == {1: 1}
    assert solvable3.bracket_basis(2, 0) == {1: -1}
    assert solvable3.bracket_basis(1, 1) == {}
