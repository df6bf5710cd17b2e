"""poishom benchmark: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; poishom is imported from ``src/`` there.
Set-up builds the workload's seeded inputs.  The timed phase then runs
rounds (every op of the workload once, each op starting when the previous
one returned) for about ``--seconds`` and checks every op's output; an op
that raises or returns a wrong output is a failed op.  Between rounds the
set-up runs again, for about a sixth of the time.  Every op and set-up is
timed by ``meter.Meter`` in reference seconds, which the machine's changing
speed does not move; wall-clock figures are printed beside them.

With ``--trace 0`` the last line is the JSON result with the end-to-end
metrics.  With ``--trace 1`` the run times untraced rounds for half the
time, then one traced set-up and traced rounds for the other half, prints a
per-layer self-time table, writes the spans to ``perfbench/out/`` and ends
with the per-layer metrics.  Per-layer counts and times are per round, with
the one traced set-up added in.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from meter import REF_PROBE_S, Meter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 2
SETUP_MIN_REPEATS = 5
SETUP_SHARE = 0.15  # of the timed phase spent on repeated set-ups
SPAN_BUDGET = 1_000_000  # about 30 MB of spans; traced rounds stop past it


def import_program():
    """Import poishom from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import poishom
    except ImportError as exc:
        sys.exit(f"cannot import poishom from {src}: {exc}")
    if Path(poishom.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"poishom was imported from {poishom.__file__}, not from {src}")


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def machine_info() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def run_setup(meter: Meter, setup, setups: list):
    """One timed set-up; its (wall, reference) seconds go to ``setups``."""
    ok, ops, wall, ref = meter.call(setup)
    if not ok:
        raise ops
    setups.append((wall, ref))
    return ops


def run_rounds(ops, seconds: float, meter: Meter, tracer=None, setup=None, setups=None) -> dict:
    """Closed loop over rounds of ``ops``: at least MIN_ROUNDS, and more while
    another round with its set-ups still ends within ``seconds`` (with a
    tracer, while it holds fewer than SPAN_BUDGET spans).  Only ``op.run`` is
    timed; ``latencies[i]`` holds op i's (wall, reference) seconds, one pair
    per round.  With ``setup``, each round is followed by set-ups, timed into
    ``setups``, until they hold a SETUP_SHARE of the time, so set-up is
    sampled across the run as the ops are."""
    clock = time.perf_counter
    latencies = [[] for _ in ops]
    rounds, failed, op_id = 0, 0, 0

    def call(op, arg):
        if tracer is None:
            return op.run(arg)
        tracer.on = True
        try:
            return op.run(arg)
        finally:
            tracer.on = False

    start = clock()
    cycle = 0.0
    while rounds < MIN_ROUNDS or (
        clock() - start + cycle <= seconds and (tracer is None or len(tracer) < SPAN_BUDGET)
    ):
        cycle_start = clock()
        for op, samples in zip(ops, latencies):
            arg = op.prepare() if op.prepare else None
            if tracer is not None:
                tracer.op = op_id
            ok, out, wall, ref = meter.call(call, op, arg)
            if not ok:
                print(f"op {op.label} raised {type(out).__name__}: {out}", file=sys.stderr)
            else:
                try:
                    ok = bool(op.check(out))
                except Exception as exc:  # a check that raises fails the op
                    print(f"op {op.label} check raised {type(exc).__name__}: {exc}", file=sys.stderr)
            if not ok:
                failed += 1
                print(f"op {op.label} failed its output check", file=sys.stderr)
            samples.append((wall, ref))
            op_id += 1
        rounds += 1
        while setup is not None and (
            len(setups) < SETUP_MIN_REPEATS
            or sum(w for w, _ in setups) < SETUP_SHARE * (clock() - start)
        ):
            run_setup(meter, setup, setups)
        cycle = clock() - cycle_start
    # each op's median over the rounds, in reference and in wall seconds
    op_times = [statistics.median(r for _, r in x) for x in latencies]
    op_walls = [statistics.median(w for w, _ in x) for x in latencies]
    return {
        "rounds": rounds,
        "attempted": rounds * len(ops),
        "failed": failed,
        "op_times": op_times,
        "wall": sum(op_times),
        "wall_clock": sum(op_walls),
        "total": sum(w for x in latencies for w, _ in x),
    }


def percentile(samples, q: float) -> float:
    """Nearest rank: the smallest sample with at least a share q of all
    samples at or below it."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def end_to_end(res: dict, setup_s: float) -> dict:
    """All times in reference seconds (see meter.py).  Each op's latency is
    its median over the run's rounds, and setup_s is the median of the run's
    set-ups.  wall_s adds the op latencies up over one round; the
    percentiles rank them."""
    ms = [1e3 * x for x in res["op_times"]]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (res["wall"], "s"),
        "ops_per_s": (len(ms) / res["wall"], "1/s"),
        "op_p50_ms": (percentile(ms, 0.5), "ms"),
        "op_p90_ms": (percentile(ms, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, setup_spans: int, traced: dict, untraced: dict) -> tuple[dict, list]:
    """Per-layer metrics: counts and self times per traced round, with the
    one traced set-up (the first ``setup_spans`` spans) added in."""
    from spans import DERIVED, WRAPPED

    rounds = traced["rounds"]
    s_calls, s_self, s_extra = tracer.self_times(0, setup_spans)
    r_calls, r_self, r_extra = tracer.self_times(setup_spans)
    index = {w[0]: i for i, w in enumerate(WRAPPED)}
    out, rows = {}, []
    for i, (name, _, _) in enumerate(WRAPPED):
        calls = s_calls[i] + r_calls[i] / rounds
        self_s = s_self[i] + r_self[i] / rounds
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
        if calls:
            rows.append((name, calls, self_s))
    rows.sort(key=lambda r: -r[2])

    def per_round_row(name):
        row_calls = r_calls[index["homspace.classification_row"]]
        return r_calls[index[name]] / row_calls if row_calls else 0.0

    rref, rk4 = index["linalg.rref"], index["coord.rk4_flow"]
    steps = r_extra[rk4]
    derived = {
        "linalg.rref.cells": s_extra[rref] + r_extra[rref] / rounds,
        "linalg.rref.per_row": per_round_row("linalg.rref"),
        "homspace.coisotropy_check.per_row": per_round_row("homspace.coisotropy_check"),
        "coord.rk4_flow.evals_per_step": (
            tracer.calls_under(rk4, index["poly.eval_float"]) / steps if steps else 0.0
        ),
        "trace.wall_s": traced["wall"],
        "trace.overhead": traced["wall"] / untraced["wall"],
    }
    for name, unit in DERIVED:
        out[name] = (derived[name], unit)
    return out, rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    import_program()
    import workloads

    if args.workload not in workloads.SETUPS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.SETUPS)}")
    reference = load_reference()
    setup = workloads.SETUPS[args.workload]
    info = machine_info()
    # the run's identity, as JSON; the last line holds only the result
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "machine": info}))

    if not args.trace:
        setups: list = []
        with Meter() as meter:
            ops = run_setup(meter, lambda: setup(args.seed, reference), setups)
            res = run_rounds(
                ops, args.seconds, meter, setup=lambda: setup(args.seed, reference), setups=setups
            )
        metrics = end_to_end(res, statistics.median(r for _, r in setups))
        n, per_round = res["attempted"], len(ops)
        notes = {
            "setup_s": f"median of {len(setups)} set-ups; wall clock "
            f"{statistics.median(w for w, _ in setups):.6g} s, the first {setups[0][0]:.6g} s",
            "wall_s": f"one round of {per_round} ops, each at its median of {res['rounds']} "
            f"rounds; wall clock {res['wall_clock']:.6g} s",
            "op_p50_ms": f"over {per_round} op latencies ({n} samples)",
            "op_p90_ms": f"over {per_round} op latencies ({n} samples)"
            + ("" if per_round >= 10 else "; fewer than ten ops, so it is the slowest op"),
        }
        print(f"times in reference seconds (perfbench/meter.py): a probe took a median "
              f"{1e3 * statistics.median(meter.times):.4g} ms here, {1e3 * REF_PROBE_S:.4g} ms "
              "at reference speed")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<12} {value:>14.6g} {unit:<5} {notes.get(name, '')}")
        print(f"  {'fail_ratio':<12} {res['failed'] / n:>14.6g} {'1':<5} {res['failed']}/{n} ops failed")
    else:
        from spans import Tracer, install

        with Meter() as meter:
            untraced = run_rounds(setup(args.seed, reference), args.seconds / 2, meter)
        tracer = Tracer()
        install(tracer)
        tracer.on = True
        t0 = time.perf_counter()
        ops = setup(args.seed, reference)
        traced_wall = time.perf_counter() - t0
        tracer.on = False
        setup_spans = len(tracer)
        # no timer probes here, so that none lands inside a span
        res = run_rounds(ops, args.seconds / 2, Meter(), tracer=tracer)
        traced_wall += res["total"]
        metrics, rows = per_layer(tracer, setup_spans, res, untraced)
        total_self = sum(tracer.self_times()[1])
        if total_self > traced_wall:
            raise RuntimeError(f"self times {total_self:.6g} s exceed traced wall {traced_wall:.6g} s")
        print(f"per-layer self time in wall seconds, per round of {len(ops)} ops with one "
              f"set-up added ({res['rounds']} traced rounds, {len(tracer)} spans)")
        print(f"  {'function':<46} {'calls':>12} {'self_s':>12}")
        for name, c, s in rows:
            print(f"  {name:<46} {c:>12.6g} {s:>12.6g}")
        for name in ("linalg.rref.cells", "linalg.rref.per_row",
                     "homspace.coisotropy_check.per_row", "coord.rk4_flow.evals_per_step"):
            print(f"  {name:<46} {metrics[name][0]:>12.6g}")
        print(f"  tracing overhead: traced/untraced wall_s = {metrics['trace.overhead'][0]:.4g} "
              f"({res['wall']:.6g} s / {untraced['wall']:.6g} s, reference seconds)")
        print(f"  self times sum to {total_self:.6g} s <= traced wall {traced_wall:.6g} s "
              "(set-up and rounds)")
        out = HERE / "out" / f"spans-{args.workload}.bin"
        tracer.write(out, {"workload": args.workload, "seed": args.seed, "machine": info})
        print(f"  spans written to {out.relative_to(ROOT)}")

    runs = [res] if not args.trace else [untraced, res]
    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
