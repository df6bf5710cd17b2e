"""Seeded inputs, operations and output checks for the four workloads.

Each workload's ``setup(seed, reference)`` builds its inputs and returns a
list of ``Op``.  A round runs every op once, in order; rounds repeat until the
run's time is up.  The seed chooses inputs from fixed pools (eta values,
start points, subalgebra picks), so two seeds give different inputs with the
same op counts, and every pooled input has an output digest recorded from the
seed code in ``reference.json`` (see ``record.py``).  Ops that take a
prepared input get a fresh deep copy of it before every call, untimed, so
nothing an earlier call cached on the input carries over.

poishom modules are imported as modules and their functions looked up at call
time, so the per-layer tracer sees every call the benchmark makes.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from poishom import bialgebra, catalog, coord, homspace, specfile, verify

ETA_POOL = tuple(
    Fraction(s)
    for s in (
        "1/2", "-1/2", "2/3", "-2/3", "3/2", "-3/2", "3/4", "-3/4",
        "4/3", "-4/3", "2", "-2", "3", "-3", "5/2", "-5/2",
    )
)

# The nearest-rank 50th and 90th percentiles of a round's op latencies are
# the 13th and 23rd fastest of 25 flow or certify ops, and the 19th (a
# catalog row) and 35th (the sl(4) so(4) row, the cheapest of the four sl(4)
# rows) of 38 classify ops, so the 90th percentile is an sl(4) system.

# flow: every trajectory has the same length, so op cost does not depend on
# which starts a seed picks
FLOW_T = 0.5
FLOW_DT = 1e-3
FLOW_POOL_SIZE = 40
FLOW_PICKS = {"su2": 5, "compartmental": 10, "canonical2d": 10}
FLOW_DIV_BOUND = 1e-8  # acceptance bound on |int div dt|
FLOW_DRIFT_BOUND = 1e-6
POOL_SEED = 20240826

LADDER_NS = (3, 4, 5)
DOUBLE_JACOBI_MAX_N = 4  # sl(6)-sized doubles take tens of seconds

CERTIFY_MODELS = ("su2", "sl2-hyperbolic", "sl2-elliptic", "sl2-parabolic")
CERTIFY_PRESERVING = ("su2", "sl2-elliptic")
CERTIFY_TODA_POINTS = 7


@dataclass
class Op:
    """One timed call.  ``prepare`` (untimed) makes the argument for ``run``;
    ``check`` (untimed) returns True when the output is correct."""

    label: str
    run: Callable[[Any], Any]
    check: Callable[[Any], bool]
    prepare: Optional[Callable[[], Any]] = None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def row_digest(row: dict) -> str:
    return digest(json.dumps(row, sort_keys=True, default=str))


def trace_digest(trace) -> str:
    return digest(trace.csv())


def algebra_digest(B) -> str:
    """Digest of the structure constants of g and of the generated dual."""
    parts = []
    for L in (B.g, B.dual):
        for i in range(L.dim):
            for j in range(i + 1, L.dim):
                parts.extend(f"{i},{j},{k}:{c}" for k, c in sorted(L.bracket_basis(i, j).items()))
        parts.append("|")
    return digest(";".join(parts))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def sl_subalgebras(n: int, g) -> dict[str, list[list[int]]]:
    """Closed subalgebras of sl(n) on the D/S/Q basis: the Cartan, so(n) and
    the Borel of upper-triangular matrices in each ordering of the basis."""

    def vec(entries):
        coords = [0] * g.dim
        for label, c in entries.items():
            coords[g.index(label)] = c
        return coords

    cartan = [vec({f"D{k + 1}": 1}) for k in range(n - 1)]
    subs = {
        "cartan": cartan,
        "so": [vec({f"Q{i + 1}{j + 1}": 1}) for i in range(n) for j in range(i + 1, n)],
    }
    for perm in itertools.permutations(range(n)):
        rows = list(cartan)
        for i in range(n):
            for j in range(i + 1, n):
                a, b = perm[i], perm[j]
                lo, hi = min(a, b), max(a, b)
                sign = 1 if a < b else -1  # E_ab = (S + Q)/2 above, (S - Q)/2 below
                rows.append(vec({f"S{lo + 1}{hi + 1}": 1, f"Q{lo + 1}{hi + 1}": sign}))
        subs["borel-" + "".join(map(str, perm))] = rows
    return subs


def spec_text(B, rows) -> str:
    g = B.g
    doc = specfile.SpecDocument(
        labels=g.labels,
        brackets={
            (i, j): g.bracket_basis(i, j)
            for i in range(g.dim)
            for j in range(i + 1, g.dim)
            if g.bracket_basis(i, j)
        },
        delta={k: dict(B.delta.images[k].terms) for k in range(g.dim)},
        subalgebra=rows,
    )
    return specfile.serialize_spec(doc)


def classify_key_catalog(name, eta) -> str:
    return f"catalog|{name}|{eta}"


def classify_key_sl(n, kind, eta) -> str:
    return f"sl{n}|{kind}|{eta}"


def classify_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "catalog_etas": rng.sample(ETA_POOL, 2),
        "sl3": (rng.choice(ETA_POOL), ["cartan", "so"] + rng.sample(borels(3), 2)),
        "sl4": (rng.choice(ETA_POOL), ["cartan", "so"] + rng.sample(borels(4), 2)),
    }


def borels(n: int) -> list[str]:
    return ["borel-" + "".join(map(str, p)) for p in itertools.permutations(range(n))]


def sl_homspaces(n: int, eta, kinds):
    """(key, spec) pairs for subalgebras of sl(n), read back from spec text."""
    B = bialgebra.sln_standard_bialgebra(n, eta)
    subs = sl_subalgebras(n, B.g)
    return [
        (
            classify_key_sl(n, kind, eta),
            specfile.parse_spec_text(spec_text(B, subs[kind])).build_homspace(f"sl{n}-{kind}"),
        )
        for kind in kinds
    ]


def setup_classify(seed: int, reference: dict) -> list[Op]:
    inputs = classify_inputs(seed)
    golden = verify.golden_rows(verify.load_golden())
    ref = reference["classify"]
    ops = []

    def add(key, S, want=None):
        def check(row):
            if want is not None and {k: row.get(k) for k in want} != want:
                return False
            return row_digest(row) == ref.get(key)

        # each round classifies a fresh copy, so nothing cached on the inputs
        # carries over from one round to the next
        ops.append(
            Op(
                key,
                lambda S: homspace.classification_row(S),
                check,
                prepare=lambda S=S: copy.deepcopy(S),
            )
        )

    for eta in inputs["catalog_etas"]:
        for name in catalog.HOMSPACE_NAMES:
            want = {k: v for k, v in golden[name].items() if k != "anchors"}
            add(classify_key_catalog(name, eta), catalog.build_homspace(name, eta), want)
    for n in (3, 4):
        eta, kinds = inputs[f"sl{n}"]
        for key, S in sl_homspaces(n, eta, kinds):
            add(key, S)
    return ops


# ---------------------------------------------------------------------------
# sln-ladder
# ---------------------------------------------------------------------------


def ladder_key(n, eta) -> str:
    return f"sl{n}|{eta}"


def so_labels(n: int) -> list[str]:
    return [f"Q{i + 1}{j + 1}" for i in range(n) for j in range(i + 1, n)]


def ladder_op(n: int, eta):
    """Build and validate sl(n) at eta, then the double's Jacobi identity (small
    n) and the Lagrangian cross-check on the so(n) quotient."""
    B = bialgebra.sln_standard_bialgebra(n, eta)
    S = homspace.HomogeneousSpaceSpec(f"sl{n}-so", B, B.g.subalgebra(so_labels(n)))
    bad = bialgebra.double_jacobi_check(B) if n <= DOUBLE_JACOBI_MAX_N else None
    return B, bad, homspace.lu_crosscheck(S)


def setup_ladder(seed: int, reference: dict) -> list[Op]:
    rng = random.Random(seed)
    etas = [rng.choice(ETA_POOL) for _ in LADDER_NS]
    ref = reference["sln-ladder"]
    ops = []
    for n, eta in zip(LADDER_NS, etas):
        # the so(n) isotropy must be closed in sl(n) before it is an input
        g = bialgebra.sln_algebra(n)
        if not g.is_subalgebra([g.basis_vector(l) for l in so_labels(n)]):
            raise ValueError(f"so({n}) is not closed in sl({n})")
        key = ladder_key(n, eta)
        ops.append(
            Op(
                key,
                lambda _, n=n, eta=eta: ladder_op(n, eta),
                lambda out, key=key: out[1] is None
                and out[2] is True
                and algebra_digest(out[0]) == ref.get(key),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------


def flow_pool() -> dict[str, list[tuple]]:
    """Fixed pools of (eta, start) per model; a seed picks from them."""
    rng = random.Random(POOL_SEED)
    sphere = catalog.build_model("su2").model.sampler

    def small():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    def distinct(draw):
        pool = {}
        while len(pool) < FLOW_POOL_SIZE:
            pool.setdefault(draw(), None)
        return list(pool)

    return {
        "su2": distinct(lambda: (rng.choice(ETA_POOL), sphere(rng))),
        "compartmental": distinct(lambda: (1, (small(), small(), small()))),
        "canonical2d": distinct(lambda: (1, (small(), small()))),
    }


def flow_key(model, eta, start) -> str:
    return f"{model}|{eta}|" + ",".join(str(c) for c in start)


def flow_inputs(seed: int) -> list[tuple]:
    rng = random.Random(seed)
    pool = flow_pool()
    return [(m, *pick) for m, k in FLOW_PICKS.items() for pick in rng.sample(pool[m], k)]


def flow_run(model, h, start):
    return coord.rk4_flow(model, h, start, T=FLOW_T, dt=FLOW_DT)


def flow_ok(trace, want: Optional[str]) -> bool:
    return (
        abs(trace.final_div_integral()) <= FLOW_DIV_BOUND
        and trace.max_drift() <= FLOW_DRIFT_BOUND
        and trace_digest(trace) == want
    )


def setup_flow(seed: int, reference: dict) -> list[Op]:
    ref = reference["flow"]
    ops = []
    for name, eta, start in flow_inputs(seed):
        bundle = catalog.build_model(name, eta)
        field = coord.hamiltonian_vf(bundle.model, bundle.hamiltonian)
        if not coord.divergence(bundle.model, field).is_zero():
            raise ValueError(f"{name}: Hamiltonian field is not divergence-free")
        key = flow_key(name, eta, start)
        # each op integrates on a fresh copy of the model, as a `dynamics` run
        # integrates on a model no earlier call has used
        ops.append(
            Op(
                key,
                lambda b, x0=start: flow_run(b.model, b.hamiltonian, x0),
                lambda tr, key=key: flow_ok(tr, ref.get(key)),
                prepare=lambda b=bundle: copy.deepcopy(b),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def toda_horizontal_value(a) -> Fraction:
    """Closed form of the horizontal field on the Toda Hamiltonian at the
    singular point with parameter a."""
    return -(4 / a**2) * (a**2 + 1) * (a + 1) * (a - 1)


def certify_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    etas = {name: rng.choice(ETA_POOL) for name in CERTIFY_MODELS}
    rng_seeds = {name: rng.randrange(2**31) for name in CERTIFY_MODELS + ("toda-n3",)}
    points = []
    while len(points) < CERTIFY_TODA_POINTS:
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if a and a not in points:
            points.append(a)
    return {"etas": etas, "rng_seeds": rng_seeds, "toda_points": points}


def setup_certify(seed: int, reference: dict) -> list[Op]:
    """Set-up builds each model once; every op checks a fresh copy of it, so
    nothing an earlier op cached on the model carries over."""
    inputs = certify_inputs(seed)
    ops = []

    def add(label, new_copy, run, check):
        ops.append(Op(label, run, check, prepare=new_copy))

    def fresh(b):
        return lambda: copy.deepcopy(b)

    def mult_and_jacobi(name, new_copy, pairs, points):
        s = inputs["rng_seeds"][name]
        add(
            f"{name}|multiplicativity",
            new_copy,
            lambda b: coord.multiplicativity_spotcheck(b.model, pairs=pairs, rng=random.Random(s)),
            lambda worst: worst == 0.0,
        )
        add(
            f"{name}|jacobi",
            new_copy,
            lambda b: coord.jacobi_symbolic(b.model, rng=random.Random(s), points=points),
            lambda v: v.ok and v.max_residual == 0.0,
        )

    def residual(b):
        m = b.model
        return coord.preservation_residual(
            m, b.hamiltonian, m.constant(0), m.constant(0), b.left_chi, b.right_chi
        )

    def with_target(new_copy):
        def prepare():
            b = new_copy()
            return b, b.horizontal_field()

        return prepare

    for name in CERTIFY_MODELS:
        b = catalog.build_model(name, inputs["etas"][name])
        new_copy = fresh(b)
        mult_and_jacobi(name, new_copy, 5, 10)
        add(
            f"{name}|kernel",
            with_target(new_copy),
            lambda bt: coord.kernel_obstruction_verify(
                bt[0].model, bt[0].kernel_covector, bt[1], bt[0].kernel_witness
            ),
            lambda cert: cert.witness_value != 0,
        )
        if name in CERTIFY_PRESERVING:
            add(f"{name}|preservation", new_copy, residual, lambda r: r.is_zero())
        if b.morse_frame:
            half = Fraction(1, 2)
            add(
                f"{name}|hessian",
                new_copy,
                lambda b: coord.hessian_at(b.model, b.hamiltonian, b.model.base_point, b.morse_frame),
                lambda H: H == [[half, 0], [0, half]],
            )

    toda_copy = fresh(catalog.build_model("toda-n3"))
    mult_and_jacobi("toda-n3", toda_copy, 2, 4)
    add("toda-n3|preservation", toda_copy, residual, lambda r: not r.is_zero())
    for a in inputs["toda_points"]:
        add(
            f"toda-n3|horizontal|{a}",
            toda_copy,
            lambda b, a=a: b.horizontal_field()(b.hamiltonian).eval(catalog.toda_singular_point(a)),
            lambda v, a=a: v == toda_horizontal_value(a),
        )
    return ops


SETUPS = {
    "classify": setup_classify,
    "sln-ladder": setup_ladder,
    "flow": setup_flow,
    "certify": setup_certify,
}
