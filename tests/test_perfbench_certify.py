"""Every certify op the benchmark can run passes its own output check.

``perfbench/workloads.py`` builds one seed's 25 certify ops (multiplicativity,
Jacobi and kernel certificates on su2 and the three sl2 models, preservation,
the su2 Hessian, and toda-n3 multiplicativity, Jacobi, preservation and 7
horizontal values) and checks each result: exact zero residuals, nonzero
witnesses, the Hessian and the closed-form horizontal values.  The second
test runs the 15 ops of the four eta-dependent models at every eta of the
pool, so every seed's models are checked.  The files are loaded read-only
from the checkout.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 7


@pytest.fixture
def workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up in sys.modules while it is defined
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def reference():
    return json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def test_certify_ops_pass_their_checks(workloads, reference):
    ops = workloads.setup_certify(SEED, reference)
    assert len(ops) == 25
    for op in ops:
        assert op.check(op.run(op.prepare())), op.label


def test_every_pooled_eta_passes_the_certify_checks(workloads, reference, monkeypatch):
    # set-up reads its etas from certify_inputs; each round gives all four
    # models one pooled eta, with seed 7's draws for the spot checks
    inputs = workloads.certify_inputs(SEED)
    for eta in workloads.ETA_POOL:
        etas = {name: eta for name in workloads.CERTIFY_MODELS}
        monkeypatch.setattr(workloads, "certify_inputs", lambda seed: {**inputs, "etas": etas})
        ops = [
            op
            for op in workloads.setup_certify(SEED, reference)
            if op.label.split("|")[0] in workloads.CERTIFY_MODELS
        ]
        assert len(ops) == 15
        for op in ops:
            assert op.check(op.run(op.prepare())), (str(eta), op.label)
