"""Every flow trace the benchmark can run is bit-identical to the digest the
benchmark recorded for it.

``perfbench/workloads.py`` builds one seed's 25 flow ops (5 su2, 10
compartmental, 10 canonical2d starts, 500 RK4 steps each) and checks each
trace's CSV digest against ``perfbench/reference.json``; the second test
runs every one of the 120 pooled inputs (40 starts per model) the digests
cover, so every seed's inputs are checked.  Both files are loaded
read-only from the checkout.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from poishom import catalog

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


def test_flow_traces_match_the_benchmark_digests(workloads, reference):
    ops = workloads.setup_flow(SEED, reference)
    assert len(ops) == 25
    for op in ops:
        assert op.check(op.run(op.prepare())), op.label


def test_every_pooled_flow_input_matches_its_digest(workloads, reference):
    pool = workloads.flow_pool()
    keys = [workloads.flow_key(name, *pick) for name, picks in pool.items() for pick in picks]
    assert sorted(keys) == sorted(reference["flow"])
    for name, picks in pool.items():
        for eta, start in picks:
            bundle = catalog.build_model(name, eta)
            trace = workloads.flow_run(bundle.model, bundle.hamiltonian, start)
            key = workloads.flow_key(name, eta, start)
            assert workloads.flow_ok(trace, reference["flow"][key]), key
