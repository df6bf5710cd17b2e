"""Every flow trace of one benchmark seed is bit-identical to the digest the
benchmark recorded for it.

``perfbench/workloads.py`` builds the seed's 25 flow ops (5 su2, 10
compartmental, 10 canonical2d starts, 500 RK4 steps each) and checks each
trace's CSV digest against ``perfbench/reference.json``.  Both files are
loaded read-only from the checkout.
"""

import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 7


def test_flow_traces_match_the_benchmark_digests(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up in sys.modules while it is defined
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    ops = workloads.setup_flow(SEED, reference)
    assert len(ops) == 25
    for op in ops:
        assert op.check(op.run(op.prepare())), op.label
