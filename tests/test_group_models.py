"""The group models that ``catalog.model_on`` generates from their catalog
structures, against the hand-written models of ``oracles``, and the toda
r-matrix against the R-map construction of the standard cocommutator on
sl(3)."""

from fractions import Fraction

import pytest

from poishom import catalog

from oracles import sl2_by_hand, sln_bialgebra_by_fractions, su2_by_hand, toda3_by_hand

ETAS = (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-5, 2))


def _by_hand(name: str, eta) -> dict:
    if name == "su2":
        return su2_by_hand(eta)
    if name == "toda-n3":
        return toda3_by_hand()  # fixed at eta = 1
    return sl2_by_hand(name.removeprefix("sl2-"), eta)


@pytest.mark.parametrize("eta", ETAS, ids=str)
@pytest.mark.parametrize("name", tuple(catalog.GROUP_MODELS))
def test_generated_group_model_matches_the_hand_written_one(name, eta):
    b, want = catalog.build_model(name, eta), _by_hand(name, eta)
    assert b.model._table == want["brackets"]
    assert list(b.left_chi.components) == want["left_chi"]
    assert list(b.right_chi.components) == want["right_chi"]
    assert [list(f.components) for f in b.vertical_fields] == want["vertical"]
    assert [list(f.components) for f in b.morse_frame] == want["morse"]
    assert list(b.frame) == want["frame"]
    assert list(b.delta_images) == want["delta_images"]
    assert list(b.model.group_mult) == want["group_mult"]


def test_su2_bracket_keeps_the_hand_written_term_order():
    """The float flow sums each bracket entry in term order, so the flow
    digests pin su2's order, not only its polynomials."""
    for eta in ETAS:
        got = catalog.build_model("su2", eta).model._table
        want = su2_by_hand(eta)["brackets"]
        assert list(got) == list(want)
        assert [list(p.terms) for p in got.values()] == [list(p.terms) for p in want.values()]


@pytest.mark.parametrize("eta", (Fraction(1), Fraction(2)), ids=str)
def test_toda_rmatrix_coboundary_is_the_standard_cocommutator(eta):
    """The r-matrix toda-n3 reads off its structure, -eta/2 sum S_ij ^ Q_ij,
    has the cocommutator of the triangular R-map under the trace pairing."""
    B = catalog.BIALGEBRAS["sl3-standard-structure"](eta)
    r = {(B.g.labels[a], B.g.labels[b]): c for (a, b), c in B.delta.r.terms.items()}
    assert r == {(f"S{p}", f"Q{p}"): -eta / 2 for p in ("12", "13", "23")}
    R = sln_bialgebra_by_fractions(3, eta)
    assert [im.terms for im in B.delta.images] == [im.terms for im in R.delta.images]
