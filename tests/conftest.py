import builtins
import contextlib
import functools
import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from poishom import catalog, homspace
from poishom.bialgebra import sln_standard_bialgebra

from oracles import mu_by_elimination

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
def workloads():
    """``perfbench/workloads.py``, loaded read-only from the checkout."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        # its dataclass looks its module up in sys.modules while it is defined
        mp.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
    return module


def _recorded(real, calls: list):
    def call(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    return call


@contextlib.contextmanager
def _recording_code_generation():
    generated = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("compile", "exec"):
            mp.setattr(builtins, name, _recorded(getattr(builtins, name), generated))
        yield generated


@pytest.fixture
def code_generation():
    """``with code_generation() as generated:`` runs its block with
    ``compile`` and ``exec`` working as usual and each call recorded in
    ``generated``; they are restored on leaving the block."""
    return _recording_code_generation


@pytest.fixture
def rng():
    return random.Random(catalog.DEFAULT_SEED)


@pytest.fixture(scope="session")
def so3():
    return catalog.algebra("so3")


@pytest.fixture(scope="session")
def solvable3():
    return catalog.algebra("solvable3")


@pytest.fixture(scope="session")
def r2xr2():
    return catalog.algebra("r2xr2")


@pytest.fixture(scope="session")
def sl2_tri():
    return catalog.algebra("sl2-triangular")


def valid_bialgebras():
    """(id, build) for every catalog structure at eta 1, 2, 1/3 and -5/2 and
    for the standard sl(3), sl(4) and sl(5) at two etas each."""
    cases = [
        (f"{name}-{eta}", functools.partial(catalog.bialgebra, name, eta))
        for eta in (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-5, 2))
        for name in catalog.STRUCTURES
    ]
    cases += [
        (f"sl{n}-{eta}", functools.partial(sln_standard_bialgebra, n, eta))
        for n in (3, 4, 5)
        for eta in (Fraction(3, 2), Fraction(-1, 3))
    ]
    return cases


def assert_mu_matches_elimination(S) -> bool:
    """``homspace._Analysis.mu`` gives the verdict, the witness's ``repr``
    and the null dimension of ``oracles.mu_by_elimination``; returns whether
    the semi-invariant solution theta0 is unique."""
    A = homspace._Analysis(S)
    got, want = ((w is None, repr(w), len(null)) for w, null in (A.mu, mu_by_elimination(A)))
    assert got == want, S.name
    pivots, dim = A.semi_reduced[1], S.bialgebra.dim
    return len(pivots) == dim and dim not in pivots


def rational(rng, num=6, den=4):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_vector(L, rng):
    return L.vector([rational(rng) for _ in range(L.dim)])


def random_covector(L, rng):
    return L.covector([rational(rng) for _ in range(L.dim)])
