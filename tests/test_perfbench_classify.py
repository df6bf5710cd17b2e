"""Every classify op of one benchmark seed passes its own output check.

``perfbench/workloads.py`` builds the seed's 38 classify ops (the 15 catalog
entries at two etas, and the Cartan, so(n) and two Borel subalgebras of sl(3)
and sl(4) read back from spec text) and checks each row: catalog rows against
the golden table, every row against its digest in ``reference.json``.  The
files are loaded read-only from the checkout.
"""

import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 7


def test_classify_ops_pass_their_checks(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up in sys.modules while it is defined
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    ops = workloads.setup_classify(SEED, reference)
    assert len(ops) == 38
    for op in ops:
        assert op.check(op.run(op.prepare())), op.label
