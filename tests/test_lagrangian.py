"""The double held once per bialgebra, and the span of l = h + h0 in it.

``LieBialgebra.double`` builds g (+) g* once, and both ``double_jacobi_check``
and ``lu_crosscheck`` read it.  ``lu_crosscheck`` assembles the span of
l = h + h0 from the spans of h and h0 (``RowSpan.direct_sum``) with no
elimination.  h0's span is read off h's reduced rows, on h's free columns,
which are not always the pivots an elimination picks (a Borel's are not), so
the span ``lu_crosscheck`` builds must be the eliminated one as a subspace
(each contains the other's reduced rows) and give the same modular
character values and the same cross-check.  ``direct_sum`` itself, on h0's
eliminated span, must equal ``RowSpan`` of the stacked rows eliminated on
``scale``, ``scaled`` and ``transform`` (pivot order included) when that
span is at h's scale, and refuse it when it is not; l must still be refused
when it is not closed.
"""

from fractions import Fraction

import pytest

from poishom import bialgebra, catalog, homspace, linalg
from poishom.bialgebra import double_jacobi_check, sln_standard_bialgebra
from poishom.homspace import HomogeneousSpaceSpec, _Analysis
from poishom.lie import LieAlgebra, Subalgebra, Vector, sparse
from poishom.linalg import integer_row


def stacked_rows(S):
    """The basis of l in the double: h padded on the right, h0 on the left."""
    zeros = [Fraction(0)] * S.bialgebra.dim
    rows = [list(v.coords) + zeros for v in S.h.basis]
    return rows + [zeros + list(xi.coords) for xi in S.bialgebra.g.annihilator(S.h)]


def assert_h0_is_the_annihilator(S):
    """h0's int rows are read off h's span; its basis, made when read, is
    ``annihilator``'s basis of ann(h), Fraction for Fraction."""
    basis, ann = _Analysis(S).h0.basis, S.bialgebra.g.annihilator(S.h)
    assert [v.coords for v in basis] == [xi.coords for xi in ann]
    assert all(type(c) is Fraction for v in basis for c in v.coords)
    # both read the same rows, so check them against h itself too
    assert len(ann) == S.bialgebra.dim - S.h.dim
    assert all(xi(v) == 0 for xi in ann for v in S.h.basis)


def reduced_rows(span):
    """The int rows {p: scale, **scaled[p]} of a span's reduced rows."""
    return [{p: span.scale, **terms} for p, terms in span.scaled.items()]


def eliminated(scale, rows):
    """``RowSpan.reduced``'s rows given to the elimination instead, and the
    result held at ``scale`` (h's, which ``direct_sum`` requires): the
    elimination only divides rows already reduced, so its scale divides it."""
    span = linalg.RowSpan([(scale, {p: scale, **terms}) for p, terms in rows.items()])
    k, rest = divmod(scale, span.scale)
    assert not rest
    span.scale = scale
    span.scaled = {p: {c: k * x for c, x in t.items()} for p, t in span.scaled.items()}
    span.transform = {p: {c: k * x for c, x in t.items()} for p, t in span.transform.items()}
    return span


def assert_same_subspace(built, ref):
    assert built.dim == ref.dim == len(built.scaled) == len(ref.scaled)
    assert all(ref.contains(row) for row in reduced_rows(built))
    assert all(built.contains(row) for row in reduced_rows(ref))


def assert_span_is_the_eliminated_one(S):
    A, m = _Analysis(S), S.bialgebra.dim
    assert_h0_is_the_annihilator(S)
    h0_ref = linalg.RowSpan(A.h0.int_basis)
    assert_same_subspace(A.h0.span, h0_ref)
    ref = linalg.RowSpan([integer_row(sparse(row)) for row in stacked_rows(S)])
    built = linalg.RowSpan.direct_sum(S.h.span, A.h0.span, m)
    assert_same_subspace(built, ref)
    rows = S.h.int_basis + [(s, {k + m: x for k, x in b.items()}) for s, b in A.h0.int_basis]
    for parent, rows, span, span_ref in (
        (S.bialgebra.dual, A.h0.int_basis, A.h0.span, h0_ref),
        (S.bialgebra.double, rows, built, ref),
    ):
        chi = Subalgebra.from_int_rows(parent, rows, verify=False, span=span)
        chi_ref = Subalgebra.from_int_rows(parent, rows, verify=False, span=span_ref)
        assert chi.modular_character_values() == chi_ref.modular_character_values()
    if A.coisotropic:
        got = homspace.lu_crosscheck(S)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg.RowSpan, "reduced", eliminated)
            assert homspace.lu_crosscheck(S) == got
    # the direct sum itself, on h0's eliminated span, is the eliminated stack
    # when that span is at h's scale, and is refused when it is not
    if h0_ref.scale != S.h.span.scale:
        with pytest.raises(ValueError, match="spans at scales"):
            linalg.RowSpan.direct_sum(S.h.span, h0_ref, m)
        return
    built = linalg.RowSpan.direct_sum(S.h.span, h0_ref, m)
    assert built.scale == ref.scale
    assert list(built.scaled.items()) == list(ref.scaled.items())
    assert list(built.transform.items()) == list(ref.transform.items())
    assert built.dim == ref.dim == m


@pytest.mark.parametrize("eta", [Fraction(1), Fraction(2), Fraction(-5, 2)])
def test_lagrangian_span_on_catalog_entries(eta):
    for name in catalog.HOMSPACE_NAMES:
        assert_span_is_the_eliminated_one(catalog.build_homspace(name, eta))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lagrangian_span_on_sln(workloads, n):
    B, labels = sln_standard_bialgebra(n, Fraction(-5, 2)), workloads.so_labels(n)
    assert_span_is_the_eliminated_one(HomogeneousSpaceSpec("so", B, B.g.subalgebra(labels)))
    # a basis vector times 3 gives h's span a scale of its own; h0's span is
    # read at it, and h0's eliminated span, at a scale of its own, is
    # refused by the direct sum
    scaled = B.g.subalgebra([3 * B.g.basis_vector(labels[0])] + labels[1:])
    S = HomogeneousSpaceSpec("so-scaled", B, scaled)
    A = _Analysis(S)
    assert S.h.span.scale == A.h0.span.scale != linalg.RowSpan(A.h0.int_basis).scale
    assert_span_is_the_eliminated_one(S)
    assert homspace.lu_crosscheck(S)
    # a Borel is not spanned by basis vectors: its reduced rows have entries
    # off their pivots, and an elimination of h0's rows picks other pivots
    ((_, S),) = workloads.sl_homspaces(n, Fraction(-5, 2), [workloads.borels(n)[-1]])
    A = _Analysis(S)
    assert list(A.h0.span.scaled) != list(linalg.RowSpan(A.h0.int_basis).scaled)
    assert_span_is_the_eliminated_one(S)


@pytest.mark.parametrize("whole", [False, True], ids=["h=0", "h=g"])
def test_lagrangian_span_edge_cases(whole):
    B = sln_standard_bialgebra(3, 1)
    h = B.g.subalgebra(list(B.g.labels) if whole else [])
    S = HomogeneousSpaceSpec("edge", B, h)
    assert_span_is_the_eliminated_one(S)
    assert homspace.lu_crosscheck(S)


def test_double_is_built_once_for_both_checks(monkeypatch):
    B = sln_standard_bialgebra(4, Fraction(3, 2))
    S = HomogeneousSpaceSpec("so", B, B.g.subalgebra(["Q12", "Q13", "Q14", "Q23", "Q24", "Q34"]))
    built = []
    build = bialgebra.double_algebra

    def counted(bialg):
        built.append(bialg)
        return build(bialg)

    monkeypatch.setattr(bialgebra, "double_algebra", counted)
    assert double_jacobi_check(B) is None
    assert homspace.lu_crosscheck(S)
    assert built == [B]


def assert_refused_with_e_d1_in(first, second):
    """toda-n3: h = so(3) = <Q12, Q13, Q23>, so e^S12 and e^S13 are in h0,
    and e_D1 is in neither h nor g*; adding e_D1 to [first, second] of the
    double takes l out of itself, and lu_crosscheck must raise."""
    S = catalog.build_homspace("toda-n3", 1)
    B = S.bialgebra
    D = B.double
    i, j, d1 = (D.index(label) for label in (first, second, "D1"))
    table = {key: dict(image) for key, image in D._table.items()}
    image = table.setdefault((i, j), {})
    image[d1] = image.get(d1, 0) + 1
    broken = LieAlgebra(D.labels, table)
    vectors = [Vector(broken, row) for row in stacked_rows(S)]
    with pytest.raises(ValueError, match="does not span a subalgebra"):
        broken.subalgebra(vectors, verify=True)
    B.__dict__["double"] = broken  # the bialgebra's cached double
    with pytest.raises(ValueError, match="does not span a subalgebra"):
        homspace.lu_crosscheck(S)
    assert homspace.lu_crosscheck(catalog.build_homspace("toda-n3", 1))


def test_lu_crosscheck_refuses_an_l_that_is_not_closed():
    assert_refused_with_e_d1_in("Q12", "S^12")  # an h x h0 pair


def test_lu_crosscheck_decides_the_closure_of_h0_in_the_double():
    """The h0 x h0 pairs re-decide coisotropy in the double, apart from
    ``_Analysis``, which reads g*: they are still bracketed."""
    assert_refused_with_e_d1_in("S^12", "S^13")



@pytest.mark.parametrize("eta", [Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-5, 2)])
def test_h0_rows_are_the_annihilator_on_catalog_entries(eta):
    for name in catalog.HOMSPACE_NAMES:
        assert_h0_is_the_annihilator(catalog.build_homspace(name, eta))


@pytest.mark.parametrize("n", [3, 4])
def test_h0_rows_are_the_annihilator_on_sln(workloads, n):
    kinds = ["cartan", "so"] + workloads.borels(n)
    for _, S in workloads.sl_homspaces(n, Fraction(-5, 2), kinds):
        assert_h0_is_the_annihilator(S)
    B = sln_standard_bialgebra(n, Fraction(1, 3))
    g, labels = B.g, workloads.so_labels(n)
    # a scaled basis vector, h = g (no annihilator) and h = 0 (all of g*)
    for h in ([3 * g.basis_vector(labels[0])] + labels[1:], list(g.labels), []):
        assert_h0_is_the_annihilator(HomogeneousSpaceSpec("h", B, g.subalgebra(h)))


def eliminated_lift(S) -> tuple:
    """chi_h0 lifted through the eliminated span of ann(h)'s basis in g*,
    each covector scaled to its own lowest-terms int row."""
    dual, g = S.bialgebra.dual, S.bialgebra.g
    h0 = Subalgebra(dual, [Vector(dual, xi.coords) for xi in g.annihilator(S.h)], verify=False)
    lift = [Fraction(0)] * g.dim
    for p, x in h0.span.lift(h0.modular_character_values()).items():
        lift[p] = x
    return tuple(lift)


def test_x_h0_is_the_eliminated_span_lift(workloads):
    """The reported x_h0 sits on the pivots an elimination of h0's rows
    picks, on the catalog at 4 etas and on the classify workload's Borels
    of seed 3, where h0's own span has other pivots."""
    specs = [
        catalog.build_homspace(name, eta)
        for eta in (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-5, 2))
        for name in catalog.HOMSPACE_NAMES
    ]
    inputs, borels = workloads.classify_inputs(3), []
    for n in (3, 4):
        eta, kinds = inputs[f"sl{n}"]
        borels += [S for _, S in workloads.sl_homspaces(n, eta, kinds) if "borel" in S.name]
    assert len(borels) == 4
    for S in borels:
        A = _Analysis(S)
        assert list(A.h0.span.scaled) != list(linalg.RowSpan(A.h0.int_basis).scaled), S.name
    for S in specs + borels:
        if _Analysis(S).coisotropic:
            rep = homspace.multiplicative_unimodularity_check(S)
            assert rep.x_h0.coords == eliminated_lift(S), S.name
            assert homspace.chi_h0(S) == (rep.chi_h0, rep.x_h0), S.name
