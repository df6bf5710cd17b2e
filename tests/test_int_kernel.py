"""The integer Lie kernel against the Fraction paths it replaced.

Each ``LieAlgebra`` holds its constants once, as a positive int ``den`` and a
sparse int table ``ints``; Jacobi, the coboundary of an r-matrix, the
cocycle identity, closure, ideals, traces and closed one-forms all read them.
Here each of those is compared with the Fraction path in ``oracles.py`` on
catalog subalgebras, the sl(3..5) Cartan, so(n) and Borels, h0 in g* and
l = h + h0 in the double, perturbed bases and tables, and constants with
coprime denominators near 10^50.  The ``_table`` view is pinned entry for
entry, in insertion order, and a guard counts the Fractions the checks make
on a prebuilt sl(4).  The int tables the package builds (sl(n), the dual of
a coboundary or of zero, the double) skip the validating constructor; they
are pinned to its rules and to its rebuild of them, and a guard counts its
runs on the sl(n) ladder.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from poishom import catalog, homspace, linalg, verify
from poishom.bialgebra import (
    CocommutatorMap,
    LieBialgebra,
    cocycle_check,
    double_jacobi_check,
    dual_constants,
    sln_algebra,
    sln_standard_bialgebra,
)
from poishom.exterior import ExteriorElement, ce_differential
from poishom.homspace import (
    HomogeneousSpaceSpec,
    _Analysis,
    _closedness_rows,
    _mu_rows,
    _quotient_traces,
)
from poishom.lie import LieAlgebra, Subalgebra, Vector, is_closed_one_form

from conftest import valid_bialgebras
from oracles import (
    coboundary_by_ad_extension,
    cocycle_check_by_ad_terms,
    double_table_by_fractions,
    is_closed_by_fractions,
    is_closed_one_form_by_pairs,
    is_ideal_by_fractions,
    jacobi_check_by_fractions,
    modular_character_values_by_fractions,
    quotient_traces_by_fractions,
    sln_algebra_by_fractions,
)

ETAS = (Fraction(1), Fraction(-5, 2))
# coprime denominators near 10^50, as in test_kernel_oracles.py
P, R, A = 10**50 + 3, 10**50 + 7, 10**49 + 9
HUGE = LieAlgebra(
    ("a", "b", "c", "d"),
    {
        (0, 1): {1: Fraction(-(10**49) - 1, P)},
        (0, 2): {2: Fraction(7 * 10**49 + 1, R), 3: Fraction(1, A)},
        (0, 3): {3: Fraction(3 * 10**49 + 1, P)},
        (1, 2): {3: Fraction(-(10**48) - 1, A)},
    },
)
HUGE_DELTA = {1: {(1, 2): Fraction(-(10**48) - 1, A)}, 3: {(0, 3): Fraction(5, P)}}

small_rational = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
huge_rational = st.builds(Fraction, st.integers(-(10**50), 10**50), st.integers(1, 10**50))


def catalog_bialgebras():
    return [catalog.bialgebra(name, eta) for name in catalog.STRUCTURES for eta in ETAS]


@pytest.fixture(scope="module")
def subspaces(workloads):
    """(parent, basis rows): h in g, h0 in g* and l = h + h0 in the double for
    every catalog entry at two etas and for the sl(3..5) Cartan, so(n) and
    three Borels, plus subspaces of the 10^50 algebra."""
    specs = [catalog.build_homspace(name, eta) for name in catalog.HOMSPACE_NAMES for eta in ETAS]
    for n in (3, 4, 5):
        B = sln_standard_bialgebra(n, Fraction(-5, 2))
        subs = workloads.sl_subalgebras(n, B.g)
        borels = workloads.borels(n)
        for kind in ["cartan", "so", borels[0], borels[len(borels) // 2], borels[-1]]:
            h = B.g.subalgebra([B.g.vector(row) for row in subs[kind]])
            specs.append(HomogeneousSpaceSpec(kind, B, h))
    out = [(HUGE, [[1, 0, 0, 0]]), (HUGE, [[0, 1, 0, 0], [0, 0, 0, 1]]), (HUGE, [[0, 0, 1, 0]])]
    for S in specs:
        g, m = S.bialgebra.g, S.bialgebra.dim
        h = [list(v.coords) for v in S.h.basis]
        h0 = [list(xi.coords) for xi in g.annihilator(S.h)]
        out += [(g, h), (S.bialgebra.dual, h0)]
        out.append((S.bialgebra.double, [r + [0] * m for r in h] + [[0] * m + r for r in h0]))
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_closure_ideal_and_traces_match_the_fraction_paths(subspaces, data):
    L, rows = data.draw(st.sampled_from(subspaces))
    rows = [list(r) for r in rows]
    if rows and data.draw(st.booleans()):
        # a perturbed basis: one entry moved, usually out of closure
        i, a = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, L.dim - 1))
        rows[i][a] += data.draw(st.one_of(small_rational, huge_rational).filter(bool))
    # each basis vector rescaled, so its int row has a scale of its own
    scales = [data.draw(small_rational.filter(bool)) for _ in rows]
    try:
        h = Subalgebra(L, [Vector(L, [s * x for x in r]) for s, r in zip(scales, rows)], False)
    except ValueError:  # the perturbation made the basis dependent
        assume(False)
    assert h.is_closed() == is_closed_by_fractions(h)
    assert h.is_ideal() == is_ideal_by_fractions(h)
    assert h.modular_character_values() == modular_character_values_by_fractions(h)
    assert _quotient_traces(h) == quotient_traces_by_fractions(h)


def pair(data, dim: int) -> tuple[int, int]:
    """Two basis indices i < j."""
    return tuple(sorted(data.draw(st.sets(st.integers(0, dim - 1), min_size=2, max_size=2))))


@pytest.fixture(scope="module")
def tables():
    """(bialgebra, whether the dense Jacobi oracle runs on its double) for
    the catalog bialgebras at two etas and sl(3..5)."""
    out = [(B, B.dim <= 8) for B in catalog_bialgebras()]
    out += [(sln_standard_bialgebra(n, Fraction(-5, 2)), n <= 4) for n in (3, 4, 5)]
    return out


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_jacobi_and_cocycle_match_the_fraction_paths(tables, data):
    choice = data.draw(st.integers(0, len(tables)))
    if choice == len(tables):
        g, images = HUGE, {k: dict(t) for k, t in HUGE_DELTA.items()}
        algebras = [HUGE]
    else:
        B, with_double = tables[choice]
        g, images = B.g, {k: dict(im.terms) for k, im in enumerate(B.delta.images)}
        algebras = [B.g, B.dual] + ([B.double] if with_double else [])
    L = data.draw(st.sampled_from(algebras))
    if data.draw(st.booleans()):
        # one constant moved, by an int step on the int table (a step of
        # 1/den) or by a rational one, and the table rebuilt
        i, j = pair(data, L.dim)
        k = data.draw(st.integers(0, L.dim - 1))
        if data.draw(st.booleans()):
            step = Fraction(data.draw(st.integers(-3, 3)), L.den)
        else:
            step = data.draw(st.one_of(small_rational, huge_rational))
        table = {key: dict(image) for key, image in L._table.items()}
        image = table.setdefault((i, j), {})
        image[k] = image.get(k, 0) + step
        L = LieAlgebra(L.labels, table)
    assert L.jacobi_check() == jacobi_check_by_fractions(L)
    if data.draw(st.booleans()):
        k = data.draw(st.integers(0, g.dim - 1))
        a, b = pair(data, g.dim)
        images.setdefault(k, {})
        images[k][(a, b)] = images[k].get((a, b), 0) + data.draw(small_rational.filter(bool))
    delta = CocommutatorMap.from_images(g, images)
    assert cocycle_check(g, delta) == cocycle_check_by_ad_terms(g, delta)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_is_closed_one_form_matches_the_pairwise_loop(tables, data):
    choice = data.draw(st.integers(0, len(tables)))
    if choice == len(tables):
        L = HUGE
    else:
        B, _ = tables[choice]
        L = data.draw(st.sampled_from([B.g, B.dual, B.double]))
    rows = [[Fraction(d.get(k, 0)) for k in range(L.dim)] for d in _closedness_rows(L)]
    closed = linalg.nullspace(rows) if rows else []
    coeffs = data.draw(st.lists(small_rational, min_size=len(closed), max_size=len(closed)))
    coords = [sum((c * v[a] for c, v in zip(coeffs, closed)), Fraction(0)) for a in range(L.dim)]
    if data.draw(st.booleans()):
        a = data.draw(st.integers(0, L.dim - 1))
        coords[a] += data.draw(st.one_of(small_rational, huge_rational))
    theta = L.covector(coords)
    assert is_closed_one_form(L, theta) == is_closed_one_form_by_pairs(L, theta)


def test_is_closed_one_form_sees_both_verdicts():
    B = sln_standard_bialgebra(3, Fraction(-5, 2))
    for L in (B.g, B.dual, B.double, HUGE):
        theta = L.modular_character()
        assert is_closed_one_form(L, theta) and is_closed_one_form_by_pairs(L, theta)
    # sl(3) is perfect: no nonzero form kills every bracket
    theta = B.g.basis_covector(0)
    assert not is_closed_one_form(B.g, theta) and not is_closed_one_form_by_pairs(B.g, theta)
    theta = HUGE.covector([0, 0, 0, Fraction(1, P)])
    assert not is_closed_one_form(HUGE, theta) and not is_closed_one_form_by_pairs(HUGE, theta)


# ---------------------------------------------------------------------------
# the Fraction view and the int path
# ---------------------------------------------------------------------------


def assert_view(L, want):
    """L's ``_table`` is ``want`` entry for entry, in insertion order, on
    Fractions, and it is ``ints`` over ``den``, in the same order."""
    assert list(L._table.items()) == list(want.items())
    assert all(type(c) is Fraction for image in L._table.values() for c in image.values())
    assert list(L.ints) == list(L._table)
    assert all(
        list(L._table[key]) == list(image)
        and all(Fraction(c, L.den) == L._table[key][k] for k, c in image.items())
        for key, image in L.ints.items()
    )


def test_table_view_of_every_catalog_algebra_dual_and_double():
    for B in catalog_bialgebras():
        assert_view(B.g, dict(B.g._table))
        assert_view(B.dual, dual_constants(B.delta)._table)
        assert_view(B.double, double_table_by_fractions(B))


@pytest.mark.parametrize("n", range(2, 10))
def test_table_view_of_sln_at_the_digest_etas(n):
    g = sln_algebra_by_fractions(n)._table
    for eta in ("1", "-5/2", "2/3"):
        B = sln_standard_bialgebra(n, eta)
        assert_view(B.g, g)
        assert_view(B.dual, dual_constants(B.delta)._table)
        assert_view(B.double, double_table_by_fractions(B))


def assert_as_built(L, sources):
    """L's int table holds what ``LieAlgebra._trusted`` takes as given: keys
    i < j and indices on the basis, nonzero int entries and no empty image,
    in dicts that no table of ``sources`` holds.  Rebuilt from its rational
    table by the validating constructor, it has the same entries in the same
    order, on the same ints over the same den: L is at its least den."""
    n, table = L.dim, L.ints
    assert type(L.den) is int and L.den >= 1
    assert all(type(i) is int and type(j) is int and 0 <= i < j < n for i, j in table)
    assert all(image for image in table.values())
    assert all(
        type(k) is int and 0 <= k < n and type(c) is int and c
        for image in table.values()
        for k, c in image.items()
    )
    held = {id(t) for M in sources for t in (M.ints, *M.ints.values())}
    assert not held & {id(table), *map(id, table.values())}
    R = LieAlgebra(L.labels, L._table)
    assert L.den == R.den
    rebuilt = [(key, list(im.items())) for key, im in R.ints.items()]
    assert [(key, list(im.items())) for key, im in table.items()] == rebuilt


@pytest.mark.parametrize("eta", [Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-5, 2)])
def test_trusted_tables_of_the_catalog_bialgebras_are_as_built(eta):
    for name in catalog.STRUCTURES:
        B = catalog.bialgebra(name, eta)
        assert_as_built(B.dual, [B.g])
        assert_as_built(B.double, [B.g, B.dual])
        assert_as_built(CocommutatorMap.zero(B.g).dual, [B.g])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_trusted_tables_of_sln_are_as_built(n):
    B = sln_standard_bialgebra(n)
    assert_as_built(B.g, [])
    assert_as_built(B.dual, [B.g])
    assert_as_built(B.double, [B.g, B.dual])


@pytest.mark.parametrize("n", range(3, 6))
def test_sln_ladder_op_runs_no_validating_constructor(n, monkeypatch):
    """sl(n), its dual, its double and the Lagrangian cross-check on the
    so(n) quotient build every algebra they use through ``_trusted``."""
    validated = []
    init = LieAlgebra.__init__
    monkeypatch.setattr(LieAlgebra, "__init__", lambda L, *a: validated.append(1) or init(L, *a))
    B = sln_standard_bialgebra(n)
    so = [f"Q{i + 1}{j + 1}" for i in range(n) for j in range(i + 1, n)]
    assert B.double.dim == 2 * B.dim
    assert homspace.lu_crosscheck(HomogeneousSpaceSpec(f"sl{n}-so", B, B.g.subalgebra(so)))
    assert validated == []


COBOUNDARY_ALGEBRAS = (
    catalog.algebra("so3"),
    catalog.algebra("sl2-boost"),
    catalog.algebra("sl2-triangular"),
    catalog.algebra("solvable3"),
    catalog.algebra("r2xr2"),
    sln_algebra(3),
    sln_algebra(4),
    HUGE,
)


def assert_coboundary(g, r, delta):
    """delta against one ``ad_extension`` of r per basis vector: its images
    view entry for entry, with terms in key order, and the dual it stores as
    their transpose, taken image by image."""
    want = [dict(sorted(im.terms.items())) for im in coboundary_by_ad_extension(g, r)]
    assert [list(im.terms.items()) for im in delta.images] == [list(t.items()) for t in want]
    assert delta.r is r
    dual: dict = {}
    for k, t in enumerate(want):
        for key, c in t.items():
            dual.setdefault(key, {})[k] = c
    assert_view(delta.dual, dual)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_coboundary_matches_ad_extension(data):
    """``from_rmatrix`` on a random r against one ``ad_extension`` per basis
    vector."""
    g = data.draw(st.sampled_from(COBOUNDARY_ALGEBRAS))
    coeffs = st.one_of(small_rational, huge_rational).filter(bool)
    terms = {pair(data, g.dim): data.draw(coeffs) for _ in range(data.draw(st.integers(0, 6)))}
    r = ExteriorElement(g, 2, terms, False)
    assert_coboundary(g, r, CocommutatorMap.from_rmatrix(g, r))


def test_coboundary_matches_ad_extension_on_catalog_and_sln():
    """The same on every catalog coboundary structure at two etas and on the
    standard structure of sl(3..6)."""
    sln = [sln_standard_bialgebra(n, eta) for n in range(3, 7) for eta in ETAS]
    structures = [B for B in catalog_bialgebras() + sln if B.delta.r is not None]
    assert len(structures) == 2 * 8 + 8
    for B in structures:
        assert_coboundary(B.g, B.delta.r, B.delta)


def test_coboundary_rejects_an_r_off_lambda2_g():
    g, so3 = sln_algebra(3), catalog.algebra("so3")
    for r in (
        ExteriorElement(g, 2, {(0, 1): 1}, True),  # a form on g
        ExteriorElement(g, 3, {(0, 1, 2): 1}, False),
        ExteriorElement(so3, 2, {(0, 1): 1}, False),  # a bivector of another algebra
    ):
        with pytest.raises(ValueError, match="degree-2 primal"):
            CocommutatorMap.from_rmatrix(g, r)


def counted_fractions(monkeypatch) -> list:
    """The list that records the arguments of every Fraction made from now on."""
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    if hasattr(Fraction, "_from_coprime_ints"):  # arithmetic's constructor on Python >= 3.12
        coprime = Fraction._from_coprime_ints
        monkeypatch.setattr(
            Fraction, "_from_coprime_ints", classmethod(lambda _, *a: made.append(a) or coprime(*a))
        )
    return made


def test_kernel_checks_make_no_fraction_in_their_loops(monkeypatch):
    B = sln_standard_bialgebra(4, Fraction(-5, 2))
    D = B.double
    h = B.g.subalgebra(["Q12", "Q13", "Q14", "Q23", "Q24", "Q34"])
    omega = ExteriorElement(
        B.g, 2, {(0, 1): Fraction(1, 3), (2, 7): Fraction(-5, 2), (4, 9): 2}, True
    )
    made = counted_fractions(monkeypatch)
    assert B.g.jacobi_check() is None and B.dual.jacobi_check() is None
    assert double_jacobi_check(B) is None
    assert D.jacobi_check() is None
    assert cocycle_check(B.g, B.delta) is None
    assert h.is_closed()
    assert made == []
    d = ce_differential(B.g, omega)
    # one Fraction per term of the result, made after the int loop
    assert d.terms and len(made) == len(d.terms)


def test_homspace_eliminations_make_no_fraction(monkeypatch):
    """On a prebuilt sl(4) spec the horizontal rows are built, and the
    semi-invariant and mu systems eliminated, on ints; only the solution
    readout makes Fractions."""
    B = sln_standard_bialgebra(4, Fraction(-5, 2))
    S = HomogeneousSpaceSpec("so4", B, B.g.subalgebra(["Q12", "Q13", "Q14", "Q23", "Q24", "Q34"]))
    A = _Analysis(S)
    A.semi_rows, A.chi_g, A.chi_gs, B.g.bracket_rows  # prebuilt
    eliminations = []
    int_rref = linalg.int_rref

    def eliminate(rows):
        before = len(made)
        out = int_rref(rows)
        eliminations.append(len(made) - before)
        return out

    made = counted_fractions(monkeypatch)
    monkeypatch.setattr(linalg, "int_rref", eliminate)
    horizontal = _mu_rows(B, A.chi_g, A.chi_gs)
    assert horizontal and A.semi_reduced[1]
    assert made == []
    assert A.mu == (None, [])  # inconsistent: no solution to read out
    assert eliminations == [0, 0] and made == []
    witness, null = A.semi_invariant
    assert made  # the semi-invariant readout makes them
    assert witness.is_zero() and null == []


VALID = valid_bialgebras()


@pytest.mark.parametrize("build", [b for _, b in VALID], ids=[i for i, _ in VALID])
def test_double_jacobi_check_sweeps_nothing_on_a_valid_bialgebra(build, monkeypatch):
    """On a valid bialgebra the invariant pairing's 4-form decides: no
    ``LieAlgebra.jacobi_check`` call, no ``bracket_rows`` of the double and
    no Fraction."""
    B = build()
    D = B.double
    sweeps = []
    monkeypatch.setattr(LieAlgebra, "jacobi_check", lambda L: sweeps.append(L))
    made = counted_fractions(monkeypatch)
    assert double_jacobi_check(B) is None
    assert sweeps == [] and made == [] and "bracket_rows" not in D.__dict__


def test_sln_build_reads_one_copy_of_the_bracket_rows(monkeypatch):
    """``bracket_rows`` is built once per algebra and shared by the
    coboundary, the cocycle check (g's rows) and the dual's Jacobi check."""
    built = []
    prop = LieAlgebra.__dict__["bracket_rows"]
    monkeypatch.setattr(prop, "func", lambda L, f=prop.func: built.append(L) or f(L))
    B = sln_standard_bialgebra(4, Fraction(3, 2))
    assert sorted(map(id, built)) == sorted([id(B.g), id(B.dual)])


def test_verify_all_builds_the_catalog_bialgebras_once(monkeypatch):
    """One ``verify-all`` run builds the 10 catalog structures once, the 4
    dual-character structures at 3 etas and the 11 table entries at eta = 2:
    the golden tables read the catalog specs, and the group models are put
    on the catalog structures."""
    built = []
    init = LieBialgebra.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LieBialgebra, "__init__", counted)
    results = verify.run_all()
    assert all(r.ok for r in results)
    assert len(built) == 10 + 4 * 3 + 11
