from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from poishom import catalog, linalg
from poishom.bialgebra import sln_algebra
from poishom.exterior import (
    ExteriorElement,
    ad_extension,
    ce_differential,
    interior,
    is_ad_invariant,
    schouten_square,
    theta0_from_v0,
    top_wedge,
    wedge,
)
from poishom.lie import LieAlgebra, sparse
from poishom.linalg import integer_row

from conftest import rational
from oracles import ce_differential_by_formula, evaluate_form, theta0_by_completion


def dual_basis_elt(L, *indices, coeff=1):
    return ExteriorElement.basis(L, indices, True, coeff)


def primal_basis_elt(L, *indices, coeff=1):
    return ExteriorElement.basis(L, indices, False, coeff)


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------


def test_wedge_repeated_factor_vanishes(r2xr2):
    a = dual_basis_elt(r2xr2, 0)
    assert a.wedge(a).is_zero()


def test_wedge_parity_sign(r2xr2):
    x4 = dual_basis_elt(r2xr2, 3)
    w123 = dual_basis_elt(r2xr2, 0, 1, 2)
    assert x4.wedge(w123) == ExteriorElement(r2xr2, 4, {(0, 1, 2, 3): -1}, True)


def test_wedge_reproduces_top_form(r2xr2):
    lam = Fraction(5, 3)
    v0 = dual_basis_elt(r2xr2, 0, 1, 2, coeff=lam)
    x4 = dual_basis_elt(r2xr2, 3)
    assert (-1 * x4).wedge(v0) == ExteriorElement(r2xr2, 4, {(0, 1, 2, 3): lam}, True)


def test_wedge_mixed_spaces_rejected(so3):
    with pytest.raises(ValueError):
        dual_basis_elt(so3, 0).wedge(primal_basis_elt(so3, 1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_wedge_graded_commutative_and_associative(data):
    L = catalog.algebra("r2xr2")
    coeffs = st.fractions(max_denominator=6, min_value=-5, max_value=5)

    def elem(degree):
        from itertools import combinations

        terms = {}
        for idx in combinations(range(4), degree):
            terms[idx] = data.draw(coeffs)
        return ExteriorElement(L, degree, terms, True)

    p = data.draw(st.integers(min_value=1, max_value=2))
    q = data.draw(st.integers(min_value=1, max_value=2))
    a, b, c = elem(p), elem(q), elem(1)
    sign = (-1) ** (p * q)
    assert a.wedge(b) == sign * b.wedge(a)
    assert a.wedge(b.wedge(c)) == (a.wedge(b)).wedge(c)


# ---------------------------------------------------------------------------
# interior product
# ---------------------------------------------------------------------------


def test_interior_first_slot(r2xr2):
    w = dual_basis_elt(r2xr2, 0, 1)  # X^1 ^ X^2
    assert interior(r2xr2.basis_vector(0), w) == dual_basis_elt(r2xr2, 1)
    assert interior(r2xr2.basis_vector(1), w) == -1 * dual_basis_elt(r2xr2, 0)


def test_interior_squares_to_zero(r2xr2, rng):
    from itertools import combinations

    terms = {idx: rational(rng) for idx in combinations(range(4), 3)}
    w = ExteriorElement(r2xr2, 3, terms, True)
    v = r2xr2.vector([rational(rng) for _ in range(4)])
    assert interior(v, interior(v, w)).is_zero()


def test_interior_with_zero_character_is_zero():
    B = catalog.bialgebra("so3-structure", 1)
    chi = B.g.modular_character()  # zero for the rotation algebra
    assert interior(chi, B.delta.images[0]).is_zero()


def test_interior_type_checks(so3):
    with pytest.raises(ValueError):
        interior(so3.basis_vector(0), primal_basis_elt(so3, 0, 1))
    with pytest.raises(ValueError):
        interior(so3.basis_covector(0), dual_basis_elt(so3, 0, 1))
    with pytest.raises(ValueError):
        interior(so3.basis_vector(0), ExteriorElement(so3, 0, {(): 1}, True))


# ---------------------------------------------------------------------------
# the differential
# ---------------------------------------------------------------------------


def test_differential_degree_one_convention(solvable3):
    # (d theta)(X, Y) = -theta([X, Y]); [X1,X3] = X2 picks up -1 on X^2
    d = ce_differential(solvable3, dual_basis_elt(solvable3, 1))
    assert d == ExteriorElement(solvable3, 2, {(0, 2): -1, (1, 2): 1}, True)


def test_differential_top_annihilator_solvable3(solvable3):
    lam = Fraction(7, 2)
    v0 = dual_basis_elt(solvable3, 1, 2, coeff=lam)  # X^2 ^ X^3
    assert ce_differential(solvable3, v0).is_zero()


def test_differential_top_annihilator_r2xr2(r2xr2):
    lam = Fraction(3, 4)
    v0 = dual_basis_elt(r2xr2, 0, 1, 2, coeff=lam)
    dv0 = ce_differential(r2xr2, v0)
    assert dv0 == ExteriorElement(r2xr2, 4, {(0, 1, 2, 3): lam}, True)
    theta0 = ExteriorElement.from_vector(r2xr2.basis_covector(3))
    assert dv0 == -1 * theta0.wedge(v0)


def test_differential_abelian_vanishes(rng):
    ab = LieAlgebra(("a", "b", "c"), {})
    from itertools import combinations

    for deg in (1, 2):
        terms = {idx: rational(rng) for idx in combinations(range(3), deg)}
        assert ce_differential(ab, ExteriorElement(ab, deg, terms, True)).is_zero()


def test_differential_squares_to_zero(rng):
    from itertools import combinations

    for L in (catalog.algebra("so3"), catalog.algebra("r2xr2"), catalog.algebra("sl2-boost")):
        for deg in range(0, L.dim):
            terms = {idx: rational(rng) for idx in combinations(range(L.dim), deg)}
            w = ExteriorElement(L, deg, terms, True)
            assert ce_differential(L, ce_differential(L, w)).is_zero()


def test_differential_matches_alternating_sum_oracle(rng):
    from itertools import combinations

    for L in (catalog.algebra("so3"), catalog.algebra("r2xr2"), catalog.algebra("sl2-triangular")):
        for deg in range(1, L.dim):
            terms = {idx: rational(rng) for idx in combinations(range(L.dim), deg)}
            w = ExteriorElement(L, deg, terms, True)
            assert ce_differential(L, w) == ce_differential_by_formula(L, w)


def test_differential_rejects_primal(so3):
    with pytest.raises(ValueError):
        ce_differential(so3, primal_basis_elt(so3, 0))


# ---------------------------------------------------------------------------
# extended adjoint action
# ---------------------------------------------------------------------------


def test_ad_extension_so3(so3):
    J1, J3 = so3.basis_vector("J1"), so3.basis_vector("J3")
    p = primal_basis_elt(so3, 0, 1)  # J1 ^ J2
    assert ad_extension(so3, J3, p).is_zero()
    eta = Fraction(2, 5)
    # ad_{J1}(eta J1^J2) = eta J1 ^ J3
    assert ad_extension(so3, J1, eta * p) == primal_basis_elt(so3, 0, 2, coeff=eta)


def test_ad_extension_abelian():
    ab = LieAlgebra(("a", "b", "c"), {})
    p = ExteriorElement.basis(ab, (0, 1), False)
    assert ad_extension(ab, ab.basis_vector(2), p).is_zero()


def test_ad_extension_derivation_property(so3, rng):
    for _ in range(20):
        x = so3.vector([rational(rng) for _ in range(3)])
        a = so3.vector([rational(rng) for _ in range(3)])
        b = so3.vector([rational(rng) for _ in range(3)])
        lhs = ad_extension(
            so3, x, ExteriorElement.from_vector(a).wedge(ExteriorElement.from_vector(b))
        )
        rhs = ExteriorElement.from_vector(so3.bracket(x, a)).wedge(
            ExteriorElement.from_vector(b)
        ) + ExteriorElement.from_vector(a).wedge(
            ExteriorElement.from_vector(so3.bracket(x, b))
        )
        assert lhs == rhs


def test_ad_extension_rejects_dual(so3):
    with pytest.raises(ValueError):
        ad_extension(so3, so3.basis_vector(0), dual_basis_elt(so3, 0, 1))


# ---------------------------------------------------------------------------
# algebraic squares of r-matrices
# ---------------------------------------------------------------------------


def test_schouten_square_parabolic_vanishes(sl2_tri):
    r = primal_basis_elt(sl2_tri, 0, 1, coeff=Fraction(1, 2))  # J3 ^ J+ / 2
    assert schouten_square(sl2_tri, r).is_zero()


def test_schouten_square_zero(so3):
    assert schouten_square(so3, ExteriorElement.zero(so3, 2, False)).is_zero()


def test_schouten_square_hyperbolic_nonzero_ad_invariant(sl2_tri):
    eta = Fraction(3)
    r = primal_basis_elt(sl2_tri, 1, 2, coeff=eta)  # eta J+ ^ J-
    sq = schouten_square(sl2_tri, r)
    assert sq == ExteriorElement(sl2_tri, 3, {(0, 1, 2): 2 * eta * eta}, False)
    assert is_ad_invariant(sl2_tri, sq)


def test_schouten_square_so3_nonzero(so3):
    r = primal_basis_elt(so3, 0, 1)
    sq = schouten_square(so3, r)
    assert sq == ExteriorElement(so3, 3, {(0, 1, 2): 2}, False)
    assert is_ad_invariant(so3, sq)


def test_schouten_square_quadratic_scaling(so3, rng):
    r = ExteriorElement(
        so3, 2, {(0, 1): rational(rng), (0, 2): rational(rng), (1, 2): rational(rng)}, False
    )
    c = Fraction(-7, 3)
    assert schouten_square(so3, c * r) == (c * c) * schouten_square(so3, r)


def test_schouten_square_wrong_degree(so3):
    with pytest.raises(ValueError):
        schouten_square(so3, primal_basis_elt(so3, 0))


# ---------------------------------------------------------------------------
# theta0 from a top annihilator element
# ---------------------------------------------------------------------------


def test_theta0_r2xr2(r2xr2):
    lam = Fraction(9, 4)
    h = r2xr2.subalgebra(["X4"])
    v0 = dual_basis_elt(r2xr2, 0, 1, 2, coeff=lam)
    theta = theta0_from_v0(r2xr2, h, v0)
    assert theta(r2xr2.basis_vector("X4")) == 1
    assert list(theta.coords) == [0, 0, 0, 1]


def test_theta0_solvable3_restricts_to_zero(solvable3):
    h = solvable3.subalgebra(["X1"])
    v0 = dual_basis_elt(solvable3, 1, 2, coeff=Fraction(2, 7))
    theta = theta0_from_v0(solvable3, h, v0)
    assert theta(solvable3.basis_vector("X1")) == 0


def test_theta0_abelian_zero():
    ab = LieAlgebra(("a", "b"), {})
    h = ab.subalgebra(["a"])
    v0 = ExteriorElement.basis(ab, (1,), True)
    assert theta0_from_v0(ab, h, v0).is_zero()


def test_theta0_error_paths(r2xr2):
    h = r2xr2.subalgebra(["X4"])
    with pytest.raises(ValueError):
        theta0_from_v0(r2xr2, h, ExteriorElement.zero(r2xr2, 3, True))
    # not annihilated by h: contains X^4
    bad = dual_basis_elt(r2xr2, 0, 1, 3)
    with pytest.raises(ValueError):
        theta0_from_v0(r2xr2, h, bad)


def test_theta0_ambiguity_is_annihilator_valued(r2xr2, rng):
    """Any two covectors with d V0 = -theta ^ V0 differ by an annihilator
    element, and shifting by an annihilator element preserves the identity."""
    h = r2xr2.subalgebra(["X4"])
    v0 = dual_basis_elt(r2xr2, 0, 1, 2)
    dv0 = ce_differential(r2xr2, v0)
    theta = theta0_from_v0(r2xr2, h, v0)
    for _ in range(10):
        xi = r2xr2.covector([rational(rng), rational(rng), rational(rng), 0])
        shifted = theta + xi
        assert -1 * ExteriorElement.from_vector(shifted).wedge(v0) == dv0
        assert all(xi(b) == 0 for b in h.basis)


@pytest.mark.parametrize("n", [3, 4])
def test_theta0_is_zero_when_h_is_g(n):
    """For h = g, v0 is a nonzero scalar, trivially annihilated by h, and
    d v0 = 0, so theta0 = 0 (it used to raise on the degree-0 contraction)."""
    g = sln_algebra(n)
    h = g.subalgebra(g.labels)
    for c in (1, Fraction(-3, 7)):
        assert theta0_from_v0(g, h, ExteriorElement(g, 0, {(): c}, True)).is_zero()


THETA0_ALGEBRAS = [
    catalog.algebra("so3"),
    catalog.algebra("sl2-boost"),
    catalog.algebra("sl2-triangular"),
    catalog.algebra("solvable3"),
    catalog.algebra("r2xr2"),
    sln_algebra(3),
    sln_algebra(4),
    sln_algebra(4),
]


def generated_subalgebra(g, vectors):
    """An independent basis of the subalgebra that ``vectors`` generate."""
    basis, span, queue = [], linalg.RowSpan([]), list(vectors)
    while queue:
        v = queue.pop()
        if not span.contains(sparse(v.coords)):
            queue += [g.bracket(b, v) for b in basis]
            basis.append(v)
            span = linalg.RowSpan([integer_row(sparse(b.coords)) for b in basis])
    return basis


@st.composite
def subalgebras_with_v0(draw):
    """(g, h, v0): h generated by 0 to 3 random vectors or basis vectors of
    g, or h = g, and v0 a nonzero multiple of the top annihilator wedge."""
    g = draw(st.sampled_from(THETA0_ALGEBRAS))
    entry = st.sampled_from([0, 0, 1, -2, Fraction(1, 3)])
    coords = st.lists(entry, min_size=g.dim, max_size=g.dim)
    units = st.builds(g.basis_vector, st.integers(0, g.dim - 1))
    gens = draw(st.lists(st.one_of(units, units, st.builds(g.vector, coords)), max_size=3))
    everything = [g.basis_vector(i) for i in range(g.dim)]
    basis = generated_subalgebra(g, gens) if draw(st.integers(0, 5)) else everything
    h = g.subalgebra(basis)
    c = draw(st.sampled_from([1, -1, Fraction(-3, 7), Fraction(5, 2)]))
    return g, h, c * top_wedge(g, g.annihilator(h))


@settings(max_examples=150, deadline=None)
@given(subalgebras_with_v0())
def test_theta0_matches_basis_completion(case):
    """theta0 read off the coefficients is the covector the basis-completion
    construction gives, on random subalgebras, h = 0 and h = g included."""
    g, h, v0 = case
    assert theta0_from_v0(g, h, v0) == theta0_by_completion(g, h, v0)


def test_evaluate_form_determinant(r2xr2):
    w = dual_basis_elt(r2xr2, 0, 1)
    e1, e2 = r2xr2.basis_vector(0), r2xr2.basis_vector(1)
    assert evaluate_form(w, [e1, e2]) == 1
    assert evaluate_form(w, [e2, e1]) == -1
    assert evaluate_form(w, [e1, e1]) == 0


def test_top_wedge(so3):
    w = top_wedge(so3, [so3.basis_covector(i) for i in range(3)])
    assert w == ExteriorElement(so3, 3, {(0, 1, 2): 1}, True)
