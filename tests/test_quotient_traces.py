"""The traces read from the reduced basis of h against their slower oracles.

The quotient-trace volume certificate against the exterior one:

``homspace._Analysis.volume`` reads the traces t_i = tr(ad_{h_i} on g/h) off
the bracket table.  The oracle builds V0, the top wedge of ann(h), and
differentiates it (``oracles.v0_certificate``).  By the top-annihilator lemma
d V0 = -theta ^ V0 holds for any theta with theta|_h = t, and d V0 = 0 exactly
when t = 0.  Inputs are every catalog entry at several etas, the sl(3)/sl(4)
Cartan, so(n) and Borel subalgebras the benchmark classifies, built from
``perfbench/workloads.py`` (read-only), and the sl(5) Borel (V0 has 1024
terms).

The subalgebra traces, chi_h = tr(ad on h) on the basis of h
(``Subalgebra.modular_character_values``), against the modular character of
the induced algebra, on every catalog h and h0, the same sl(3)/sl(4)
subalgebras and the Lagrangian l = h + h0 of ``lu_crosscheck`` for sl(3..5);
no verdict builds an induced algebra.
"""

from fractions import Fraction

import pytest

from poishom import catalog, homspace
from poishom.bialgebra import double_algebra
from poishom.homspace import _Analysis, invariant_volume_exists
from poishom.lie import Covector, Subalgebra, Vector

from oracles import v0_certificate

def lift(S, values) -> Covector:
    """A covector on g taking the given values on the basis of h."""
    coords = [Fraction(0)] * S.bialgebra.g.dim
    for p, x in S.h.span.lift(list(values)).items():
        coords[p] = x
    return Covector(S.bialgebra.g, coords)


def assert_certificates_agree(S):
    """The trace certificate and the exterior one agree on S; returns whether
    some trace is nonzero."""
    traces = _Analysis(S).volume.traces
    ok, cert = invariant_volume_exists(S)
    assert cert.traces == traces and ok == (cert.kind == "invariant")
    holds = v0_certificate(S)
    assert holds(lift(S, traces)), S.name
    assert holds(None) == ok, S.name
    if any(traces):
        # the identity pins theta0 on h: a lift of 2 t fails it
        assert not holds(lift(S, [2 * t for t in traces])), S.name
    return any(traces)


@pytest.mark.parametrize("name", catalog.HOMSPACE_NAMES)
def test_catalog_traces_match_the_exterior_certificate(name):
    for eta in (1, 2, Fraction(-5, 2)):
        assert_certificates_agree(catalog.build_homspace(name, eta))


@pytest.mark.parametrize("n", [3, 4])
def test_sl_subalgebra_traces_match_the_exterior_certificate(workloads, n):
    kinds = ["cartan", "so"] + workloads.borels(n)
    nonzero = [
        assert_certificates_agree(S)
        for _, S in workloads.sl_homspaces(n, workloads.ETA_POOL[0], kinds)
    ]
    # the Cartan and so(n) quotients are invariant, the Borels are not
    assert nonzero == [False, False] + [True] * (len(kinds) - 2)


def test_sl5_borel_traces_match_the_exterior_certificate(workloads):
    ((_, S),) = workloads.sl_homspaces(5, 1, ["borel-01234"])
    assert len(S.bialgebra.g.annihilator(S.h)) == 10  # V0 has 2^10 terms in the D/S/Q basis
    assert assert_certificates_agree(S)


# ---------------------------------------------------------------------------
# chi_h from the reduced basis
# ---------------------------------------------------------------------------


def assert_subalgebra_traces(h):
    got = h.modular_character_values()
    assert got == h.induced_algebra().modular_character().coords
    assert all(type(c) is Fraction for c in got)


@pytest.mark.parametrize("name", catalog.HOMSPACE_NAMES)
def test_catalog_subalgebra_traces_match_the_induced_algebra(name):
    for eta in (1, 2, Fraction(-5, 2)):
        A = _Analysis(catalog.build_homspace(name, eta))
        assert_subalgebra_traces(A.S.h)
        if A.coisotropic:
            assert_subalgebra_traces(A.h0)


@pytest.mark.parametrize("n", [3, 4])
def test_sl_subalgebra_traces_match_the_induced_algebra(workloads, n):
    kinds = ["cartan", "so"] + workloads.borels(n)
    for _, S in workloads.sl_homspaces(n, workloads.ETA_POOL[0], kinds):
        assert_subalgebra_traces(S.h)
        assert_subalgebra_traces(_Analysis(S).h0)


def lagrangian(S) -> Subalgebra:
    """l = h + h0 inside the double, on the basis ``lu_crosscheck`` uses."""
    D, m = double_algebra(S.bialgebra), S.bialgebra.dim
    zeros = [Fraction(0)] * m
    vectors = [Vector(D, list(v.coords) + zeros) for v in S.h.basis]
    vectors += [Vector(D, zeros + list(xi.coords)) for xi in S.bialgebra.g.annihilator(S.h)]
    return D.subalgebra(vectors)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lagrangian_traces_match_the_induced_algebra(workloads, n):
    for eta in (1, Fraction(-5, 2)):
        B = workloads.bialgebra.sln_standard_bialgebra(n, eta)
        S = homspace.HomogeneousSpaceSpec("so", B, B.g.subalgebra(workloads.so_labels(n)))
        assert_subalgebra_traces(lagrangian(S))
        # a Borel: h is not spanned by basis vectors, so the reduced rows have
        # entries off their pivots
        ((_, S),) = workloads.sl_homspaces(n, eta, [workloads.borels(n)[-1]])
        assert_subalgebra_traces(lagrangian(S))


def test_verdicts_build_no_induced_algebra(workloads, monkeypatch):
    calls = []
    induced = Subalgebra.induced_algebra

    def counted(self, *args, **kwargs):
        calls.append(self.dim)
        return induced(self, *args, **kwargs)

    monkeypatch.setattr(Subalgebra, "induced_algebra", counted)
    specs = [catalog.build_homspace(name, 1) for name in catalog.HOMSPACE_NAMES]
    specs += [S for _, S in workloads.sl_homspaces(4, 1, ["cartan", "so", "borel-0123"])]
    for S in specs:
        homspace.classification_row(S)
        if _Analysis(S).coisotropic:
            homspace.lu_crosscheck(S)
    assert calls == []
