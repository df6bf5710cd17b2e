"""Every certify op of one benchmark seed passes its own output check.

``perfbench/workloads.py`` builds the seed's 25 certify ops (multiplicativity,
Jacobi and kernel certificates on su2 and the three sl2 models, preservation,
the su2 Hessian, and toda-n3 multiplicativity, Jacobi, preservation and 7
horizontal values) and checks each result: exact zero residuals, nonzero
witnesses, the Hessian and the closed-form horizontal values.  The files are
loaded read-only from the checkout.
"""

import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 7


def test_certify_ops_pass_their_checks(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up in sys.modules while it is defined
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    ops = workloads.setup_certify(SEED, reference)
    assert len(ops) == 25
    for op in ops:
        assert op.check(op.run(op.prepare())), op.label
