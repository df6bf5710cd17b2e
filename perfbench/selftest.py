"""Self-test of the benchmark on tiny instances.

    python3 perfbench/selftest.py

Checks that every workload runs without a failed op and prints every
end-to-end metric named in BENCHMARK.json, that a traced run prints every
per-layer metric, that the workload, seed and machine are recorded with
the result, that wrong reference digests fail every digest-checked op
(fail_ratio = 1) and that a wrong expected value fails certify ops, and that
two seeds give different inputs with the same op counts.  The sl(n) ladder
is cut to n = 3 here to keep the test short.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

import run  # noqa: E402

run.import_program()
import workloads  # noqa: E402

TINY = ["--seed", "11", "--seconds", "0.001"]


def run_main(*argv) -> tuple[dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(list(argv))
    if code != 0:
        raise AssertionError(f"{argv} exited with {code}")
    text = buf.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        check.failures += 1


check.failures = 0


def main() -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    layer = {m["name"] for m in BENCHMARK["per_layer"]}

    reference = run.load_reference()
    for name in names:
        setup = workloads.SETUPS[name]
        a = [op.label for op in setup(1, reference)]
        b = [op.label for op in setup(2, reference)]
        check(len(a) == len(b) and a != b, f"{name}: seeds 1 and 2 differ in inputs, not op count")

    workloads.LADDER_NS = (3,)

    for name in names:
        result, text = run_main("--workload", name, *TINY, "--trace", "0")
        check(result["failed"] == 0 and result["correct"], f"{name}: no failed op")
        header = json.loads(text.splitlines()[0])
        check(
            (header["workload"], header["seed"]) == (name, 11) and "nproc" in header["machine"],
            f"{name}: workload, seed and machine recorded with the result",
        )
        check(set(result["metrics"]) == e2e, f"{name}: JSON carries every end-to-end metric")
        printed = {line.split()[0] for line in text.splitlines() if line.startswith("  ")}
        check(e2e | {"fail_ratio"} <= printed, f"{name}: every end-to-end metric printed")
        check(
            all(v["value"] > 0 for k, v in result["metrics"].items()),
            f"{name}: end-to-end metrics are nonzero",
        )

        result, text = run_main("--workload", name, *TINY, "--trace", "1")
        check(set(result["metrics"]) == layer, f"{name}: traced run carries every per-layer metric")
        check("tracing overhead" in text, f"{name}: tracing overhead printed")
        if name == "classify":
            per_row = result["metrics"]["homspace.coisotropy_check.per_row"]["value"]
            check(per_row == 3, f"classify: coisotropy_check runs 3 times per row ({per_row})")

    wrong = {k: {key: "0" * 16 for key in v} for k, v in run.load_reference().items()}
    real_load = run.load_reference
    run.load_reference = lambda: wrong
    try:
        for name in ("classify", "sln-ladder", "flow"):
            result, _ = run_main("--workload", name, *TINY, "--trace", "0")
            ratio = result["failed"] / result["attempted"]
            check(ratio == 1 and not result["correct"], f"{name}: wrong digests give fail_ratio 1")
    finally:
        run.load_reference = real_load

    real_value = workloads.toda_horizontal_value
    workloads.toda_horizontal_value = lambda a: real_value(a) + 1
    try:
        result, _ = run_main("--workload", "certify", *TINY, "--trace", "0")
        rounds = result["attempted"] // len(workloads.setup_certify(11, reference))
        check(
            result["failed"] == rounds * workloads.CERTIFY_TODA_POINTS,
            "certify: a wrong expected value fails exactly the ops it concerns",
        )
    finally:
        workloads.toda_horizontal_value = real_value

    print(f"{check.failures} failures")
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
