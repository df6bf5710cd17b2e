"""A census of the regular subalgebras of sl(n), each one classified and
cross-checked.

A regular subalgebra here is the span of a subset of the Chevalley basis
{H_k, E_ij} of sl(n), written on the D/S/Q basis (H_k = D_k, E_ab = S_ab +
Q_ab and E_ba = S_ab - Q_ab for a < b, up to a factor 1/2), that is closed
under the bracket.  With [E_ij, E_jl] = E_il for i != l and [E_ij, E_ji] =
E_ii - E_jj = D_i + ... + D_(j-1) for i < j, closure is a condition on the
subset alone: a root set closed under addition, plus every D_k that its
opposite pairs need.  ``regular_subalgebras`` enumerates the closed root
sets and then every set of D's over what they need; the test checks that on
sl(3) this is the closed subsets of a sweep over all 2^8 subsets, and every
generated span is verified closed when its ``Subalgebra`` is built.

Every row is classified under the standard structure at two etas: sl(3) in
full (92 rows with h = 0 and h = g) and a seeded sample of 500 of sl(4)'s
2106 (the full census, cross-checks included, takes about 5 s an eta).
``tests/data/census_counts.json`` holds the verdict counts per (n, eta);
re-record them only for an intended change of output, with

    PYTHONPATH=src python tests/test_census.py > tests/data/census_counts.json

Every row's coisotropy and subgroup type are compared with the Fraction
closure and ideal tests of h0 = ann(h) in g*, on h0's eliminated span
(``oracles.is_closed_by_fractions`` / ``is_ideal_by_fractions``); every
coisotropic row also runs ``lu_crosscheck``, and its chi_h0 values and lift
x_h0 are compared with the Fraction traces and the lift read off that
eliminated span.  On this family no row reads ``multiplicative_unimodular``;
that is an observation of the code on these inputs, recorded in the counts,
not a theorem.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from poishom import homspace, linalg
from poishom.bialgebra import sln_standard_bialgebra
from poishom.homspace import HomogeneousSpaceSpec
from poishom.lie import Subalgebra, Vector

from conftest import assert_mu_matches_elimination
from oracles import (
    is_closed_by_fractions,
    is_ideal_by_fractions,
    modular_character_values_by_fractions,
)

DATA = Path(__file__).resolve().parent / "data" / "census_counts.json"
ETAS = (Fraction(3, 2), Fraction(-1))
SL4_SAMPLE, SL4_SEED = 500, 17
VERDICT = (
    "coisotropic",
    "subgroup_type",
    "invariant_volume",
    "semi_invariant",
    "chi_h0_zero",
    "mu_status",
)


def roots(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def needed_cartan(R) -> set[int]:
    """The k with D_k needed for [E_ij, E_ji] = D_i + ... + D_(j-1), i < j."""
    return {k for i, j in R if i < j and (j, i) in R for k in range(i, j)}


def regular_subalgebras(n: int) -> list[tuple[frozenset, frozenset]]:
    """Every closed (Cartan indices, roots) pair, in a fixed order: root sets
    closed under addition, and over each one every set of D's containing
    the ones its opposite pairs need."""
    out = []
    rs = roots(n)
    for size in range(len(rs) + 1):
        for R in map(frozenset, itertools.combinations(rs, size)):
            if all((i, l) in R for i, j in R for k, l in R if j == k and i != l):
                need = needed_cartan(R)
                rest = [k for k in range(n - 1) if k not in need]
                for m in range(len(rest) + 1):
                    for extra in itertools.combinations(rest, m):
                        out.append((frozenset(need | set(extra)), R))
    return out


def basis(g, n: int, T, R) -> list[Vector]:
    def vec(entries):
        coords = [0] * g.dim
        for label, c in entries.items():
            coords[g.index(label)] = c
        return g.vector(coords)

    rows = [vec({f"D{k + 1}": 1}) for k in sorted(T)]
    for i, j in sorted(R):
        lo, hi = min(i, j), max(i, j)
        rows.append(vec({f"S{lo + 1}{hi + 1}": 1, f"Q{lo + 1}{hi + 1}": 1 if i < j else -1}))
    return rows


def label(T, R) -> str:
    return ",".join([f"H{k + 1}" for k in sorted(T)] + [f"E{i + 1}{j + 1}" for i, j in sorted(R)])


def census(n: int, eta) -> list[HomogeneousSpaceSpec]:
    """The generated subalgebras of sl(n) at eta, sl(4) as a seeded sample."""
    B = sln_standard_bialgebra(n, eta)
    subs = regular_subalgebras(n)
    if n == 4:
        subs = random.Random(SL4_SEED).sample(subs, SL4_SAMPLE)
    return [
        HomogeneousSpaceSpec(label(T, R), B, B.g.subalgebra(basis(B.g, n, T, R))) for T, R in subs
    ]


def verdict(row: dict) -> str:
    return json.dumps([row[k] for k in VERDICT])


def counts(n: int, eta) -> dict[str, int]:
    tally = Counter(verdict(homspace.classification_row(S)) for S in census(n, eta))
    return dict(sorted(tally.items()))


def key(n, eta) -> str:
    return f"sl{n}|{eta}"


def record() -> dict:
    return {key(n, eta): counts(n, eta) for n in (3, 4) for eta in ETAS}


def eliminated_h0(S) -> Subalgebra:
    """h0 = ann(h) in g*, its span eliminated from its basis."""
    dual = S.bialgebra.dual
    basis = [Vector(dual, xi.coords) for xi in S.bialgebra.g.annihilator(S.h)]
    return Subalgebra(dual, basis, verify=False)


def test_generator_matches_the_subset_sweep_on_sl3():
    n, g = 3, sln_standard_bialgebra(3, 1).g
    chevalley = [(frozenset([k]), frozenset()) for k in range(n - 1)]
    chevalley += [(frozenset(), frozenset([r])) for r in roots(n)]
    swept = set()
    for mask in range(1 << len(chevalley)):
        T = frozenset().union(*(chevalley[b][0] for b in range(len(chevalley)) if mask >> b & 1))
        R = frozenset().union(*(chevalley[b][1] for b in range(len(chevalley)) if mask >> b & 1))
        if g.is_subalgebra(basis(g, n, T, R)):
            swept.add((T, R))
    generated = regular_subalgebras(n)
    assert len(generated) == len(set(generated)) == len(swept) == 92
    assert set(generated) == swept
    assert len(regular_subalgebras(4)) == 2106


@pytest.mark.parametrize("eta", ETAS, ids=str)
@pytest.mark.parametrize("n", [3, 4])
def test_census_verdicts_and_cross_checks(n, eta):
    recorded = json.loads(DATA.read_text(encoding="utf-8"))[key(n, eta)]
    tally = Counter()
    for S in census(n, eta):
        row = homspace.classification_row(S)
        tally[verdict(row)] += 1
        h0 = eliminated_h0(S)
        closed = is_closed_by_fractions(h0)
        ideal = closed and is_ideal_by_fractions(h0)
        assert row["coisotropic"] == closed, S.name
        want = homspace.PL_SUBGROUP if ideal else homspace.COISOTROPIC_ONLY
        assert row["subgroup_type"] == (want if closed else homspace.NOT_COISOTROPIC), S.name
        if not closed:
            continue
        assert homspace.lu_crosscheck(S), S.name
        values, lift = homspace.chi_h0(S)
        assert values == modular_character_values_by_fractions(h0), S.name
        want_lift = [Fraction(0)] * S.bialgebra.dim
        for p, x in linalg.RowSpan(h0.int_basis).lift(values).items():
            want_lift[p] = x
        assert lift.coords == tuple(want_lift), S.name
    assert dict(sorted(tally.items())) == recorded
    assert not any(json.loads(v)[-1] == homspace.MU_OK for v in tally)


@pytest.mark.parametrize("eta", ETAS, ids=str)
@pytest.mark.parametrize("n", [3, 4])
def test_census_mu_matches_the_full_elimination(n, eta):
    """On every census row, coisotropic or not, ``_Analysis.mu`` gives the
    verdict, witness and null dimension of the always-eliminated mu stack,
    with the semi-invariant solution unique on some rows and not on others."""
    assert {assert_mu_matches_elimination(S) for S in census(n, eta)} == {True, False}


def test_a_flipped_quotient_trace_is_caught(monkeypatch):
    """One quotient trace of the wrong sign breaks t + chi_h = chi_g on h,
    and the census raises before it reports a volume verdict."""
    traces = homspace._quotient_traces

    def flipped(h):
        t = list(traces(h))
        i = next((i for i, x in enumerate(t) if x), None)
        if i is not None:
            t[i] = -t[i]
        return tuple(t)

    monkeypatch.setattr(homspace, "_quotient_traces", flipped)
    with pytest.raises(AssertionError, match="do not add up to chi_g"):
        counts(3, ETAS[0])


def test_dropping_the_restriction_rows_changes_the_counts(monkeypatch):
    """With h's rows theta0|_h = chi_g|_h - chi_h gone from the semi-invariant
    stack, only closedness is left and the census counts move off the
    recorded ones at both etas."""
    recorded = json.loads(DATA.read_text(encoding="utf-8"))
    prop = homspace._Analysis.__dict__["semi_rows"]
    monkeypatch.setattr(prop, "func", lambda A: homspace._closedness_rows(A.g))
    for eta in ETAS:
        assert counts(3, eta) != recorded[key(3, eta)]


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
