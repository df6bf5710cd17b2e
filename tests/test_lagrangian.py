"""The double held once per bialgebra, and the span of l = h + h0 in it.

``LieBialgebra.double`` builds g (+) g* once, and both ``double_jacobi_check``
and ``lu_crosscheck`` read it.  ``lu_crosscheck`` assembles the span of
l = h + h0 from the spans of h and h0 (``RowSpan.direct_sum``) with no
elimination; it must equal ``RowSpan`` of the stacked rows eliminated, on
``scale``, ``scaled`` and ``transform`` (pivot order included), and l must
still be refused when it is not closed.
"""

from fractions import Fraction

import pytest

from poishom import catalog, homspace, linalg
from poishom.bialgebra import double_jacobi_check, sln_standard_bialgebra
from poishom.homspace import HomogeneousSpaceSpec, _Analysis
from poishom.lie import LieAlgebra, Vector, sparse
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


def assert_span_is_the_eliminated_one(S):
    A = _Analysis(S)
    assert_h0_is_the_annihilator(S)
    built = linalg.RowSpan.direct_sum(S.h.span, A.h0.span, S.bialgebra.dim)
    ref = linalg.RowSpan([integer_row(sparse(row)) for row in stacked_rows(S)])
    assert built.scale == ref.scale
    assert list(built.scaled.items()) == list(ref.scaled.items())
    assert list(built.transform.items()) == list(ref.transform.items())
    assert built.dim == ref.dim == S.bialgebra.dim


@pytest.mark.parametrize("eta", [Fraction(1), Fraction(2), Fraction(-5, 2)])
def test_lagrangian_span_on_catalog_entries(eta):
    for name in catalog.HOMSPACE_NAMES:
        assert_span_is_the_eliminated_one(catalog.build_homspace(name, eta))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lagrangian_span_on_sln(workloads, n):
    B, labels = sln_standard_bialgebra(n, Fraction(-5, 2)), workloads.so_labels(n)
    assert_span_is_the_eliminated_one(HomogeneousSpaceSpec("so", B, B.g.subalgebra(labels)))
    # a basis vector times 3 gives h's span a scale of its own, so that the
    # direct sum rescales h0's rows to the common one
    scaled = B.g.subalgebra([3 * B.g.basis_vector(labels[0])] + labels[1:])
    S = HomogeneousSpaceSpec("so-scaled", B, scaled)
    assert S.h.span.scale != _Analysis(S).h0.span.scale
    assert_span_is_the_eliminated_one(S)
    assert homspace.lu_crosscheck(S)
    # a Borel is not spanned by basis vectors: its reduced rows have entries
    # off their pivots
    ((_, S),) = workloads.sl_homspaces(n, Fraction(-5, 2), [workloads.borels(n)[-1]])
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
    labels = B.g.labels + B.g.dual_labels
    built = []
    init = LieAlgebra.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.labels == labels)

    monkeypatch.setattr(LieAlgebra, "__init__", counted)
    assert double_jacobi_check(B) is None
    assert homspace.lu_crosscheck(S)
    assert built.count(True) == 1


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
