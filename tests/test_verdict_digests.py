"""Byte-level digests of the verdict outputs.

``tests/data/verdict_digests.json`` holds the sha256 of the stdout of
``tables --json`` and ``verify-all --json`` at eta 1 and -5/2, taken in
process through ``cli.run``.  Any byte change in a verdict, a residual or the
order of the output fails here, so a faster kernel that answers differently
is caught.  Re-record (only for an intended change of output) with

    PYTHONPATH=src python tests/test_verdict_digests.py > tests/data/verdict_digests.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from poishom.cli import run

DATA = Path(__file__).resolve().parent / "data" / "verdict_digests.json"
COMMANDS = [
    f"{verb} --json --eta {eta}" for verb in ("tables", "verify-all") for eta in ("1", "-5/2")
]


def stdout_digest(command: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(command.split()) == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command", COMMANDS)
def test_verdict_output_digest(command):
    recorded = json.loads(DATA.read_text(encoding="utf-8"))
    assert stdout_digest(command) == recorded[command]


if __name__ == "__main__":
    json.dump({c: stdout_digest(c) for c in COMMANDS}, sys.stdout, indent=1)
    print()
