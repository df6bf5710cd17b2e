"""Every function the benchmark's per-layer tracer wraps must exist.

``perfbench/spans.py`` looks each traced name up with ``getattr`` when it
installs its wrappers, so renaming or deleting one breaks ``--trace 1`` runs.
The file is loaded read-only from the checkout; it imports only the standard
library.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_wrapped_path_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    for metric, modname, path in spans.WRAPPED:
        owner = importlib.import_module(f"poishom.{modname}")
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), metric
