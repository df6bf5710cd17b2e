"""Command-line surface.

Verbs: ``analyze`` (catalog entry or spec file), ``tables`` (recompute the
quotient classification tables and diff against the golden data),
``dynamics`` (integrate a catalog Hamiltonian system and report the volume
verdict), ``verify-all`` (the full re-verification manifest) and
``catalog list``.  Exit codes: 0 ok, 1 verification failure, 2 input error,
141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from fractions import Fraction

from . import catalog, homspace, verify
from .bialgebra import _named
from .coord import (
    ConstraintDriftError,
    divergence,
    flow_steps,
    hamiltonian_vf,
    hessian_at,
    rk4_flow,
)
from .specfile import parse_spec_text

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a closed pipe
MAX_STEPS = 10**6  # 100 times the default dynamics run; every state is kept


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--eta", default="1", help="rational instantiation of the scaling parameter")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="poishom",
        description="exact unimodularity and volume-form analysis for "
        "coisotropic Poisson quotients, with coordinate-level dynamics checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a homogeneous-space entry or spec file")
    p.add_argument("target", help="catalog entry name, or a file path with --file")
    p.add_argument("--file", action="store_true", help="treat target as a spec file path")
    _add_common(p)

    p = sub.add_parser("tables", help="recompute the quotient tables against golden data")
    p.add_argument("--golden", default=None, help="override the golden data file")
    _add_common(p)

    p = sub.add_parser("dynamics", help="integrate a catalog Hamiltonian system")
    p.add_argument("case", choices=sorted(catalog.DYNAMICS_CASES))
    p.add_argument("--T", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--out", default=None, help="write the flow trace as CSV")
    _add_common(p)

    p = sub.add_parser("verify-all", help="run the full re-verification manifest")
    p.add_argument("--seed", type=int, default=catalog.DEFAULT_SEED, help="sampling seed")
    _add_common(p)

    p = sub.add_parser("catalog", help="catalog inspection")
    p.add_argument("action", choices=["list"])
    p.add_argument("--json", action="store_true", help="machine-readable output")
    return ap


def _parse_eta(raw: str) -> Fraction:
    try:
        eta = Fraction(raw)
    except ZeroDivisionError:
        raise ValueError(f"eta {raw!r} has a zero denominator") from None
    if eta == 0:
        raise ValueError("eta must be nonzero")
    return eta


def _open(path: str, mode: str):
    """open(path), a path that cannot be opened being an input error."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise ValueError(str(exc)) from None


def _render_row(row: dict) -> str:
    lines = [f"{row['name']}:"]
    lines.append(f"  coisotropic:        {row['coisotropic']}")
    lines.append(f"  subgroup type:      {row['subgroup_type']}")
    if row.get("chi_h0_zero") is not None:
        lines.append(f"  chi_h0 zero:        {row['chi_h0_zero']}")
    lines.append(f"  invariant volume:   {row['invariant_volume']}")
    lines.append(
        f"  semi-invariant:     {row['semi_invariant']} ({homspace.SIMPLY_CONNECTED_CAVEAT})"
    )
    if row.get("mu_status") is not None:
        lines.append(f"  multiplicative unimodularity: {row['mu_status']}")
    if row.get("witness_theta0"):
        lines.append(f"  witness theta0:     {row['witness_theta0']}")
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    eta = _parse_eta(args.eta)
    if args.file:
        with _open(args.target, "r") as fh:
            doc = parse_spec_text(fh.read(), eta=eta)
        g = doc.build_algebra()
        if (bad := g.jacobi_check()) is not None:
            raise ValueError(f"algebra fails the Jacobi identity at {_named(bad, g)}")
        S = doc.build_homspace(name=args.target)
        anchors = [f"file:{args.target}"]
    else:
        try:
            S = catalog.build_homspace(args.target, eta)
        except KeyError as exc:  # the message, not the KeyError's repr of it
            print(f"input error: {exc.args[0]}", file=sys.stderr)
            return EXIT_INPUT
        anchors = [f"catalog:{args.target}"]
    row = dict(homspace.classification_row(S), anchors=anchors)
    if args.json:
        print(json.dumps(row, indent=2, default=str))
    else:
        print(_render_row(row))
    return EXIT_OK


def cmd_tables(args) -> int:
    eta = _parse_eta(args.eta)
    if args.golden:
        with _open(args.golden, "r") as fh:
            try:
                golden = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ValueError(f"{args.golden}: {exc}") from None
        if not isinstance(golden, dict) or not all(
            isinstance(t := golden.get(s, {}), dict)
            and all(isinstance(row, dict) for row in t.values())
            for s in ("table1", "table2")
        ):
            raise ValueError(f"{args.golden}: table1 and table2 must be objects of row objects")
    else:
        golden = verify.load_golden()
    rows, failures = [], []
    for section, names in (("table1", catalog.TABLE1_NAMES), ("table2", catalog.TABLE2_NAMES)):
        specs = [catalog.build_homspace(name, eta) for name in names]
        section_rows, section_failures = verify.golden_table(golden, section, specs)
        rows += section_rows
        failures += section_failures
    if args.json:
        print(json.dumps({"rows": rows, "failures": failures}, indent=2, default=str))
    else:
        for row in rows:
            print(_render_row(row))
            print()
        if failures:
            for f in failures:
                print(f"GOLDEN MISMATCH {f}", file=sys.stderr)
        else:
            print(f"{len(rows)} rows match the golden tables (eta = {eta}).")
    return EXIT_VERIFICATION if failures else EXIT_OK


def cmd_dynamics(args) -> int:
    eta = _parse_eta(args.eta)
    if flow_steps(args.T, args.dt) > MAX_STEPS:
        raise ValueError(f"--T {args.T} and --dt {args.dt} give more than {MAX_STEPS} steps")
    case = catalog.DYNAMICS_CASES[args.case]
    row = catalog.GROUP_MODELS.get(case["model"])
    if row is None or row.eta is not None:  # a model built at no eta, or at a fixed one
        built = "carries no eta" if row is None else f"is fixed at eta {row.eta}"
        if eta != (1 if row is None else row.eta):
            print(f"note: {args.case} {built}; --eta {eta} is not used", file=sys.stderr)
    bundle = catalog.build_model(case["model"], eta)
    model = bundle.model
    h = bundle.hamiltonian
    field = hamiltonian_vf(model, h)
    div = divergence(model, field)
    out = {
        "case": args.case,
        "model": model.name,
        "divergence_zero": div.is_zero(),
    }
    if args.case == "toda-n3":
        a, point = 2, catalog.toda_singular_point(2)
        value = bundle.horizontal_field()(h).eval(point)
        if value == 0:
            print(f"{args.case}: horizontal pairing 0 at a = {a}, no certificate", file=sys.stderr)
            return EXIT_VERIFICATION
        out["certificate"] = {
            "kind": "nonzero_horizontal_pairing",
            "point": [str(c) for c in point],
            "value": str(value),
        }
        out["verdict"] = "no preserved volume (certificate)"
        lines = [
            f"{args.case}: {out['verdict']}",
            f"  horizontal field applied to the Hamiltonian is {value} != 0 at the "
            f"singular point with a = {a}, so no volume form is preserved.",
        ]
        if args.out:
            print(f"note: {args.case} integrates no flow; no trace written", file=sys.stderr)
    else:
        # --out is opened before the first step: an unwritable path costs no run
        try:
            with _open(args.out, "w") if args.out else contextlib.nullcontext() as sink:
                try:
                    trace = rk4_flow(model, h, bundle.flow_start, T=args.T, dt=args.dt)
                except (ConstraintDriftError, ValueError, OverflowError) as exc:
                    print(f"integrator abort: {exc}", file=sys.stderr)
                    return EXIT_VERIFICATION
                if sink:
                    trace.write_csv(sink)
        except BrokenPipeError:  # --out is a pipe its reader closed, as for stdout
            raise
        except OSError as exc:  # the write or the close of --out failed
            raise ValueError(f"cannot write {args.out}: {exc}") from None
        out["div_integral"] = trace.final_div_integral()
        out["max_constraint_drift"] = trace.max_drift()
        out["verdict"] = "volume preserved" if out["divergence_zero"] else "no preserved volume"
        lines = [
            f"{args.case}: {out['verdict']}",
            f"  |int div dt| = {abs(trace.final_div_integral()):.3e} over T = {args.T}",
            f"  max constraint drift = {trace.max_drift():.3e}",
        ]
        if case.get("morse"):
            H = hessian_at(model, h, model.base_point, bundle.morse_frame)
            out["hessian"] = [[str(c) for c in row] for row in H]
            lines.append(f"  base-point Hessian along the quotient frame: {H}")
        if args.out:
            lines.append(f"  trace written to {args.out}")
    if args.json:
        print(json.dumps(out, indent=2, default=str))
    else:
        print("\n".join(lines))
    return EXIT_OK


def cmd_verify_all(args) -> int:
    eta = _parse_eta(args.eta)
    results = verify.run_all(eta=eta, seed=args.seed)
    bad = [r for r in results if not r.ok]
    if args.json:
        print(json.dumps([dataclasses.asdict(r) for r in results], indent=2))
    else:
        for r in results:
            status = "ok  " if r.ok else "FAIL"
            detail = f"  ({r.detail})" if r.detail else ""
            print(f"{status} {r.name:42s} [{r.anchor}]{detail}")
        print(f"{len(results) - len(bad)}/{len(results)} checks passed.")
    return EXIT_VERIFICATION if bad else EXIT_OK


def cmd_catalog(args) -> int:
    lists = {
        "entries": list(catalog.HOMSPACE_NAMES),
        "models": list(catalog.MODEL_NAMES),
        "dynamics_cases": sorted(catalog.DYNAMICS_CASES),
    }
    if args.json:
        print(json.dumps(lists, indent=2))
        return EXIT_OK
    headings = ("homogeneous-space entries", "coordinate models", "dynamics cases")
    for heading, names in zip(headings, lists.values()):
        print(f"{heading}:")
        for name in names:
            print(f"  {name}")
    return EXIT_OK


COMMANDS = {
    "analyze": cmd_analyze,
    "tables": cmd_tables,
    "dynamics": cmd_dynamics,
    "verify-all": cmd_verify_all,
    "catalog": cmd_catalog,
}


def _attach_eta(argv: list[str]) -> list[str]:
    """Write ``--eta V`` as ``--eta=V`` for a negative V: argparse takes a
    value such as -5/2, which starts with '-' and is no plain number, for an
    option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--eta" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--eta={arg}"
        else:
            out.append(arg)
    return out


def run(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_attach_eta(sys.argv[1:] if argv is None else list(argv)))
    try:
        return COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout (``| head``): drop the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
