from fractions import Fraction

import pytest

from poishom import catalog
from poishom.bialgebra import LieBialgebra
from poishom.exterior import ExteriorElement, ce_differential
from poishom.homspace import (
    COISOTROPIC_ONLY,
    MU_FAILS_I,
    MU_FAILS_II,
    MU_OK,
    PL_SUBGROUP,
    HomogeneousSpaceSpec,
    canonical_v0,
    chi_h0,
    classification_report,
    classification_row,
    coisotropy_check,
    invariant_volume_exists,
    lu_crosscheck,
    multiplicative_unimodularity_check,
    semi_invariant_solutions,
    subgroup_type,
)
from poishom.lie import is_closed_one_form

from conftest import rational


def spec(name, eta=1):
    return catalog.build_homspace(name, eta)


# ---------------------------------------------------------------------------
# coisotropy and subgroup type
# ---------------------------------------------------------------------------


def test_coisotropy_spheres():
    assert coisotropy_check(spec("subgroup-sphere"))
    assert coisotropy_check(spec("coisotropic-sphere"))


def test_coisotropy_trivial_delta(so3):
    B = LieBialgebra.trivial(so3)
    S = HomogeneousSpaceSpec("trivial", B, B.g.subalgebra(["J1"]))
    assert coisotropy_check(S)
    assert subgroup_type(S) == PL_SUBGROUP  # abelian dual: every subspace is an ideal


def test_subgroup_types():
    assert subgroup_type(spec("subgroup-sphere")) == PL_SUBGROUP
    assert subgroup_type(spec("coisotropic-sphere")) == COISOTROPIC_ONLY
    assert subgroup_type(spec("ads2-hyperbolic")) == PL_SUBGROUP
    assert subgroup_type(spec("toda-n3")) == COISOTROPIC_ONLY


def test_non_coisotropic_case():
    # the elliptic structure with h = <P2>: h0 = <P^1, J^12> and
    # [P^1, J^12]_* = -2 eta J^12... stays inside, but [P^1,P^2]_* = -2 eta P^2
    # leaves the annihilator test to the bracket with the missing direction.
    B = catalog.bialgebra("sl2-elliptic", 1)
    S = HomogeneousSpaceSpec("ell-p2", B, B.g.subalgebra(["P2"]))
    if not coisotropy_check(S):
        assert subgroup_type(S) == "not_coisotropic"
        with pytest.raises(ValueError):
            multiplicative_unimodularity_check(S)
    else:  # if coisotropic, the report must still be self-consistent
        rep = multiplicative_unimodularity_check(S)
        assert rep.mu_status in (MU_OK, MU_FAILS_I, MU_FAILS_II)

    # h = <X1 + X2 + X3> in the solvable3 structure: h0 is not closed under [.,.]_*
    B = catalog.bialgebra("solvable3-structure")
    S = HomogeneousSpaceSpec("diagonal", B, B.g.subalgebra([B.g.vector([1, 1, 1])]))
    assert not coisotropy_check(S)
    assert classification_row(S) == {
        "name": "diagonal",
        "coisotropic": False,
        "subgroup_type": "not_coisotropic",
        "invariant_volume": False,
        "semi_invariant": True,
        "chi_h0_zero": None,
        "mu_status": None,
        "witness_theta0": None,
    }
    for fn in (chi_h0, multiplicative_unimodularity_check, lu_crosscheck):
        with pytest.raises(ValueError):
            fn(S)


# ---------------------------------------------------------------------------
# chi_h0 and its lift
# ---------------------------------------------------------------------------


def test_chi_h0_subgroup_sphere_zero():
    values, lift = chi_h0(spec("subgroup-sphere"))
    assert not any(values)
    assert lift.is_zero()


def test_chi_h0_coisotropic_sphere_nonzero():
    eta = Fraction(3, 2)
    S = spec("coisotropic-sphere", eta)
    values, lift = chi_h0(S)
    assert values == (0, -eta)
    assert lift == -eta * S.bialgebra.g.basis_vector("J3")


def test_chi_h0_toda_lift():
    S = spec("toda-n3")
    values, lift = chi_h0(S)
    g = S.bialgebra.g
    assert lift == -2 * g.basis_vector("D1") - 2 * g.basis_vector("D2")
    assert values == (-2, -2, 0, 0, 0)


def test_chi_h0_of_the_whole_group():
    # h = g: h0 = 0, so chi_h0 has no values and its lift is 0
    B = catalog.bialgebra("so3-structure", 1)
    S = HomogeneousSpaceSpec("point", B, B.g.subalgebra(["J1", "J2", "J3"]))
    assert chi_h0(S) == ((), B.g.zero_vector())
    assert classification_row(S)["mu_status"] == MU_FAILS_II
    assert lu_crosscheck(S)


def test_chi_h0_requires_coisotropy(so3):
    B = catalog.bialgebra("sl2-elliptic", 1)
    S = HomogeneousSpaceSpec("bad", B, B.g.subalgebra(["P2"]))
    if not coisotropy_check(S):
        with pytest.raises(ValueError):
            chi_h0(S)


# ---------------------------------------------------------------------------
# invariant and semi-invariant volume data
# ---------------------------------------------------------------------------


def test_invariant_volume_solvable3_quotient():
    S = spec("mu-plane")
    ok, cert = invariant_volume_exists(S)
    assert ok and cert.kind == "invariant"
    # V0 spans X^2 ^ X^3 and is closed
    assert cert.traces == (0,)
    assert canonical_v0(S) == ExteriorElement(S.bialgebra.g, 2, {(1, 2): 1}, True)


def test_no_invariant_volume_r2xr2_quotient():
    ok, cert = invariant_volume_exists(spec("compartmental-quotient"))
    assert not ok and cert.kind == "none"


def test_invariant_volume_toda():
    S = spec("toda-n3")
    ok, cert = invariant_volume_exists(S)
    assert ok and not any(cert.traces)
    v0 = canonical_v0(S)
    assert ce_differential(v0.algebra, v0).is_zero()


def test_semi_invariant_r2xr2_quotient():
    S = spec("compartmental-quotient")
    sols = semi_invariant_solutions(S)
    assert sols.feasible
    theta = sols.particular
    g = S.bialgebra.g
    assert list(theta.coords) == [0, 0, 0, 1]  # the modular character X^4
    assert is_closed_one_form(g, theta)
    assert sols.contains(theta)


def test_semi_invariant_infeasible_semisimple_nonunimodular_h():
    # perfect algebra (no nonzero closed covectors) with a non-unimodular h:
    # the restriction condition cannot be met
    B = catalog.bialgebra("sl2-hyperbolic-tri", 1)
    g = B.g
    # h spanned by J3 and J+: [J3, J+] = 2 J+, chi_h != 0
    h = g.subalgebra(["J3", "J+"])
    S = HomogeneousSpaceSpec("borel", B, h)
    sols = semi_invariant_solutions(S)
    assert not sols.feasible


def test_semi_invariant_unimodular_h_takes_modular_character():
    for name in ("subgroup-sphere", "toda-n3", "mu-plane"):
        S = spec(name)
        sols = semi_invariant_solutions(S)
        assert sols.feasible
        assert sols.particular == S.bialgebra.g.modular_character()


def test_semi_invariant_contains_rejects_a_covector_of_another_algebra():
    S = spec("subgroup-sphere")
    sols = semi_invariant_solutions(S)
    assert sols.feasible and sols.contains(sols.particular)
    # an sl(3) covector that starts with the particular solution's coordinates
    sl3 = spec("toda-n3").bialgebra.g
    theta = sl3.covector(list(sols.particular.coords) + [0] * (sl3.dim - 3))
    assert sl3.dim == 8 and S.bialgebra.g.dim == 3
    with pytest.raises(ValueError, match="different algebra"):
        sols.contains(theta)


# ---------------------------------------------------------------------------
# multiplicative unimodularity
# ---------------------------------------------------------------------------


def test_mu_subgroup_sphere_fails_condition_ii():
    rep = multiplicative_unimodularity_check(spec("subgroup-sphere"))
    assert rep.mu_status == MU_FAILS_II
    assert rep.h0_unimodular
    assert rep.mu_witness_theta0 is None


def test_mu_coisotropic_sphere_fails_condition_i():
    rep = multiplicative_unimodularity_check(spec("coisotropic-sphere"))
    assert rep.mu_status == MU_FAILS_I
    assert not rep.h0_unimodular


def test_mu_plane_witness():
    S = spec("mu-plane")
    rep = multiplicative_unimodularity_check(S)
    assert rep.mu_status == MU_OK
    assert list(rep.mu_witness_theta0.coords) == [0, 0, 1]  # X^3 = chi_g
    assert rep.assumes_simply_connected


def test_full_group_witness_is_half_character():
    S = spec("full-group")
    rep = multiplicative_unimodularity_check(S)
    assert rep.mu_status == MU_OK
    chi = S.bialgebra.g.modular_character()
    assert rep.mu_witness_theta0 == Fraction(1, 2) * chi


def test_compartmental_quotient_witness():
    rep = multiplicative_unimodularity_check(spec("compartmental-quotient"))
    assert rep.mu_status == MU_OK
    assert list(rep.mu_witness_theta0.coords) == [0, 0, 0, 1]


def test_mu_ok_implies_h0_unimodular_enforced():
    for name in catalog.HOMSPACE_NAMES:
        rep = multiplicative_unimodularity_check(spec(name))
        if rep.mu_status == MU_OK:
            assert rep.h0_unimodular
            assert not any(rep.chi_h0)


def test_mu_witness_lies_in_semi_invariant_solution_set():
    for name in ("mu-plane", "full-group", "compartmental-quotient"):
        S = spec(name)
        rep = multiplicative_unimodularity_check(S)
        assert semi_invariant_solutions(S).contains(rep.mu_witness_theta0)


def test_witness_recheck_refuses_a_wrong_restriction_to_h():
    # the report re-checks its witness against the quotient traces: 2 theta0
    # is still closed, but restricts to 2 t != t on h
    from poishom import homspace

    S = spec("compartmental-quotient")
    A = homspace._Analysis(S)
    witness, null = A.mu
    assert any(A.volume.traces)
    wrong = homspace._Analysis(S)
    wrong.mu = (2 * witness, null)
    with pytest.raises(AssertionError, match="quotient traces"):
        wrong.report


def test_classification_row_builds_no_exterior_algebra(monkeypatch):
    # the volume verdict and the witness re-check read the quotient traces:
    # no V0, no differential, no wedge and no contraction on the decision path
    from poishom import exterior, homspace

    specs = [spec(name) for name in catalog.HOMSPACE_NAMES]
    calls = []

    def counted(name, f):
        return lambda *args: calls.append(name) or f(*args)

    for module in (exterior, homspace):
        for name in ("ce_differential", "top_wedge", "interior"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(ExteriorElement, "wedge", counted("wedge", ExteriorElement.wedge))
    rows = [classification_row(S) for S in specs]
    assert calls == []
    assert any(row["witness_theta0"] for row in rows)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_table1_rows():
    rows = classification_report([spec(n) for n in catalog.TABLE1_NAMES])
    by_name = {r["name"]: r for r in rows}
    sub = by_name["subgroup-sphere"]
    assert (sub["chi_h0_zero"], sub["subgroup_type"], sub["mu_status"]) == (
        True,
        PL_SUBGROUP,
        MU_FAILS_II,
    )
    cois = by_name["coisotropic-sphere"]
    assert (cois["chi_h0_zero"], cois["subgroup_type"], cois["mu_status"]) == (
        False,
        COISOTROPIC_ONLY,
        MU_FAILS_I,
    )
    assert all(r["invariant_volume"] and r["semi_invariant"] for r in rows)


def test_table2_pattern():
    """Each structure has exactly one subgroup-type quotient, which fails the
    linear condition; the two coisotropic quotients fail unimodularity of the
    annihilator."""
    pl_quotient = {"hyperbolic": "ads2", "elliptic": "h2", "parabolic": "lightcone"}
    for structure, pl in pl_quotient.items():
        for quotient in ("ads2", "h2", "lightcone"):
            row = classification_row(spec(f"{quotient}-{structure}"))
            if quotient == pl:
                assert row["subgroup_type"] == PL_SUBGROUP
                assert row["chi_h0_zero"] is True
                assert row["mu_status"] == MU_FAILS_II
            else:
                assert row["subgroup_type"] == COISOTROPIC_ONLY
                assert row["chi_h0_zero"] is False
                assert row["mu_status"] == MU_FAILS_I
            assert row["invariant_volume"] is True


def test_empty_report():
    assert classification_report([]) == []


# ---------------------------------------------------------------------------
# cross-checks
# ---------------------------------------------------------------------------


def test_lu_crosscheck_all_entries():
    for name in catalog.HOMSPACE_NAMES:
        assert lu_crosscheck(spec(name)), name


def test_lu_crosscheck_trivial_bialgebra(so3):
    B = LieBialgebra.trivial(so3)
    S = HomogeneousSpaceSpec("trivial", B, B.g.subalgebra(["J3"]))
    assert lu_crosscheck(S)


def test_verdicts_invariant_under_h_basis_change(rng):
    for name in ("subgroup-sphere", "toda-n3", "compartmental-quotient"):
        S = spec(name)
        base_row = classification_row(S)
        n = S.h.dim
        for _ in range(3):
            # random invertible rational recombination of the h basis
            from poishom import linalg

            while True:
                M = [[rational(rng) for _ in range(n)] for _ in range(n)]
                if linalg.det(M) != 0:
                    break
            new_basis = [
                sum((M[i][j] * S.h.basis[j] for j in range(1, n)), M[i][0] * S.h.basis[0])
                for i in range(n)
            ]
            S2 = HomogeneousSpaceSpec(
                name, S.bialgebra, S.bialgebra.g.subalgebra(new_basis)
            )
            row = classification_row(S2)
            assert row == base_row


def test_classification_row_has_report_fields():
    row = classification_row(spec("subgroup-sphere"))
    for key in (
        "name",
        "coisotropic",
        "subgroup_type",
        "chi_h0_zero",
        "invariant_volume",
        "semi_invariant",
        "mu_status",
        "witness_theta0",
    ):
        assert key in row


def test_lemma_equivalence_both_directions(rng):
    """theta0 satisfies the wedge identity for the top annihilator element
    exactly when it restricts to chi_g|_h - chi_h on h."""
    from poishom.exterior import ExteriorElement as EE

    for name in ("compartmental-quotient", "mu-plane", "subgroup-sphere"):
        S = spec(name)
        g = S.bialgebra.g
        v0 = canonical_v0(S)
        dv0 = ce_differential(g, v0)
        chi_g = g.modular_character()
        chi_h = S.h.modular_character_values()
        for _ in range(12):
            theta = g.covector([rational(rng) for _ in range(g.dim)])
            wedge_holds = (-1 * EE.from_vector(theta).wedge(v0)) == dv0
            restr_holds = all(
                theta(v) == chi_g(v) - c for v, c in zip(S.h.basis, chi_h)
            )
            assert wedge_holds == restr_holds


def test_annihilator_dimension_and_pairing_all_entries():
    for name in catalog.HOMSPACE_NAMES:
        S = spec(name)
        g = S.bialgebra.g
        ann = g.annihilator(S.h)
        assert len(ann) + S.h.dim == g.dim
        assert all(xi(v) == 0 for xi in ann for v in S.h.basis)


def test_invariant_volume_iff_annihilator_valued_solution():
    """An invariant volume exists exactly when the semi-invariant system
    admits a solution vanishing on h (a closed annihilator-valued cocycle)."""
    from poishom import linalg
    from poishom.homspace import _closedness_rows

    for name in catalog.HOMSPACE_NAMES:
        S = spec(name)
        g = S.bialgebra.g
        chi_g = g.modular_character()
        chi_h = S.h.modular_character_values()
        rows = [[Fraction(d.get(k, 0)) for k in range(g.dim)] for d in _closedness_rows(g)]
        rhs = [Fraction(0)] * len(rows)
        for v, c in zip(S.h.basis, chi_h):
            rows.append(list(v.coords))
            rhs.append(chi_g(v) - c)       # the restriction condition ...
            rows.append(list(v.coords))
            rhs.append(Fraction(0))        # ... and membership in the annihilator
        feasible = (not rows) or linalg.solve(rows, rhs) is not None
        assert feasible == invariant_volume_exists(S)[0], name
