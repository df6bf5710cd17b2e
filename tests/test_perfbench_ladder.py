"""Every sln-ladder op of two benchmark seeds passes its own output check.

``perfbench/workloads.py`` builds one op per rung, sl(3), sl(4) and sl(5),
each at an eta drawn from the seed: build and validate the standard
bialgebra, check the double's Jacobi identity (small n), and run
``lu_crosscheck`` on the so(n) quotient.  Each op's check wants the
algebra digest in ``reference.json``, no double-Jacobi violation and a true
cross-check.  The files are loaded read-only from the checkout.
"""

import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("seed", [7, 14])
def test_ladder_ops_pass_their_checks(workloads, seed):
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    ops = workloads.setup_ladder(seed, reference)
    assert [op.label.split("|")[0] for op in ops] == ["sl3", "sl4", "sl5"]
    for op in ops:
        B, bad, lu = op.run(op.prepare() if op.prepare else None)
        assert bad is None and lu is True, op.label
        assert op.check((B, bad, lu)), op.label
