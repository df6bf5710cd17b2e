"""Record the reference output digests of every pooled input.

    python3 perfbench/record.py

Writes ``perfbench/reference.json``: for each workload, a map from input
key to the digest of the output the current code produces.  The benchmark
compares every op's output with it, so a change that alters a verdict, a
structure constant or a single bit of a flow trace fails its ops.  Record
only from code whose outputs are known good; a run takes a few minutes.
"""

from __future__ import annotations

import json
import sys

import run

run.import_program()

from poishom import catalog, homspace  # noqa: E402

import workloads as w  # noqa: E402

HERE = run.HERE


def record_classify_and_ladder() -> tuple[dict, dict]:
    classify, ladder = {}, {}
    for eta in w.ETA_POOL:
        for name in catalog.HOMSPACE_NAMES:
            row = homspace.classification_row(catalog.build_homspace(name, eta))
            classify[w.classify_key_catalog(name, eta)] = w.row_digest(row)
        for n in (3, 4):
            kinds = ["cartan", "so"] + w.borels(n)
            for key, S in w.sl_homspaces(n, eta, kinds):
                classify[key] = w.row_digest(homspace.classification_row(S))
        for n in w.LADDER_NS:
            B, bad, lu = w.ladder_op(n, eta)
            if bad is not None or lu is not True:
                raise RuntimeError(f"sl({n}) at eta = {eta} fails its own checks")
            ladder[w.ladder_key(n, eta)] = w.algebra_digest(B)
        print(f"eta = {eta} recorded", file=sys.stderr)
    return classify, ladder


def record_flow() -> dict:
    flow = {}
    for model, entries in w.flow_pool().items():
        for eta, start in entries:
            bundle = catalog.build_model(model, eta)
            trace = w.flow_run(bundle.model, bundle.hamiltonian, start)
            flow[w.flow_key(model, eta, start)] = w.trace_digest(trace)
    return flow


def write(ref: dict) -> None:
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    classify, ladder = record_classify_and_ladder()
    write({"classify": classify, "sln-ladder": ladder, "flow": record_flow()})
