"""Byte-level digests of the verdict outputs.

``tests/data/verdict_digests.json`` holds the sha256 of the stdout of
``tables --json`` and ``verify-all --json`` at eta 1 and -5/2, and of
``dynamics <case> --json --T 1`` for every dynamics case, taken in process
through ``cli.run``; for each case that integrates, the key ``<command> --out``
holds the sha256 of the CSV trace the same run writes.  Any byte change in a
verdict, a residual, a trace value or the order of the output fails here, so a
faster kernel that answers differently is caught.  Re-record (only for an
intended change of output) with

    PYTHONPATH=src python tests/test_verdict_digests.py > tests/data/verdict_digests.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from poishom.catalog import DYNAMICS_CASES
from poishom.cli import run

DATA = Path(__file__).resolve().parent / "data" / "verdict_digests.json"
COMMANDS = [
    f"{verb} --json --eta {eta}" for verb in ("tables", "verify-all") for eta in ("1", "-5/2")
]
DYNAMICS = [f"dynamics {case} --json --T 1" for case in sorted(DYNAMICS_CASES)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stdout_digest(command: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(command.split()) == 0
    return _sha256(buf.getvalue().encode())


def dynamics_digests(command: str, tmp: Path) -> dict:
    """{command: stdout digest, command + " --out": CSV digest}; the CSV key
    is absent for a case that does not integrate."""
    csv = tmp / "trace.csv"
    csv.unlink(missing_ok=True)
    out = {command: stdout_digest(f"{command} --out {csv}")}
    if csv.exists():
        out[f"{command} --out"] = _sha256(csv.read_bytes())
    return out


@pytest.mark.parametrize("command", COMMANDS)
def test_verdict_output_digest(command):
    recorded = json.loads(DATA.read_text(encoding="utf-8"))
    assert stdout_digest(command) == recorded[command]


@pytest.mark.parametrize("command", DYNAMICS)
def test_dynamics_output_digest(command, tmp_path):
    recorded = json.loads(DATA.read_text(encoding="utf-8"))
    got = dynamics_digests(command, tmp_path)
    assert got == {k: v for k, v in recorded.items() if k in (command, f"{command} --out")}


if __name__ == "__main__":
    digests = {c: stdout_digest(c) for c in COMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        for c in DYNAMICS:
            digests.update(dynamics_digests(c, Path(tmp)))
    json.dump(digests, sys.stdout, indent=1)
    print()
