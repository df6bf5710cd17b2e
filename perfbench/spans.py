"""Per-layer spans recorded from outside the program.

``install`` replaces each listed poishom function with a wrapper that records
a span (name, parent span, op id, start, end) while the tracer is on.  A
function that another poishom module imported by name, or that a class holds
under a second name (``__radd__ = __add__``), is replaced under every name it
is looked up by, so nested calls keep their parents.  Spans stay in memory in
flat arrays and are written out once, at the end of the run.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import sys
import time
from pathlib import Path

# (metric prefix, module, attribute path); the metric prefix is
# "<module>.<function>", with LieBialgebra.__init__ named as validation
WRAPPED = (
    ("linalg.rref", "linalg", "rref"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.solve", "linalg", "solve"),
    ("linalg.rank", "linalg", "rank"),
    ("linalg.in_span", "linalg", "in_span"),
    ("linalg.invert", "linalg", "invert"),
    ("linalg.det", "linalg", "det"),
    ("homspace.classification_row", "homspace", "classification_row"),
    ("homspace.coisotropy_check", "homspace", "coisotropy_check"),
    ("homspace.subgroup_type", "homspace", "subgroup_type"),
    ("homspace.chi_h0", "homspace", "chi_h0"),
    ("homspace.invariant_volume_exists", "homspace", "invariant_volume_exists"),
    ("homspace.semi_invariant_solutions", "homspace", "semi_invariant_solutions"),
    (
        "homspace.multiplicative_unimodularity_check",
        "homspace",
        "multiplicative_unimodularity_check",
    ),
    ("homspace.lu_crosscheck", "homspace", "lu_crosscheck"),
    ("lie.bracket", "lie", "LieAlgebra.bracket"),
    ("lie.jacobi_check", "lie", "LieAlgebra.jacobi_check"),
    ("lie.is_subalgebra", "lie", "LieAlgebra.is_subalgebra"),
    ("lie.modular_character", "lie", "LieAlgebra.modular_character"),
    ("lie.annihilator", "lie", "LieAlgebra.annihilator"),
    ("lie.induced_algebra", "lie", "Subalgebra.induced_algebra"),
    ("lie.is_closed_one_form", "lie", "is_closed_one_form"),
    ("bialgebra.sln_standard_bialgebra", "bialgebra", "sln_standard_bialgebra"),
    ("bialgebra.validate", "bialgebra", "LieBialgebra.__init__"),
    ("bialgebra.cocycle_check", "bialgebra", "cocycle_check"),
    ("bialgebra.dual_constants", "bialgebra", "dual_constants"),
    ("bialgebra.double_algebra", "bialgebra", "double_algebra"),
    ("bialgebra.double_bracket", "bialgebra", "double_bracket"),
    ("bialgebra.double_jacobi_check", "bialgebra", "double_jacobi_check"),
    ("exterior.wedge", "exterior", "ExteriorElement.wedge"),
    ("exterior.ce_differential", "exterior", "ce_differential"),
    ("exterior.ad_extension", "exterior", "ad_extension"),
    ("exterior.interior", "exterior", "interior"),
    ("exterior.top_wedge", "exterior", "top_wedge"),
    ("exterior.schouten_square", "exterior", "schouten_square"),
    ("poly.__mul__", "poly", "Polynomial.__mul__"),
    ("poly.__add__", "poly", "Polynomial.__add__"),
    ("poly.diff", "poly", "Polynomial.diff"),
    ("poly.eval", "poly", "Polynomial.eval"),
    ("poly.eval_float", "poly", "Polynomial.eval_float"),
    ("coord.rk4_flow", "coord", "rk4_flow"),
    ("coord.hamiltonian_vf", "coord", "hamiltonian_vf"),
    ("coord.divergence", "coord", "divergence"),
    ("coord.multiplicativity_spotcheck", "coord", "multiplicativity_spotcheck"),
    ("coord.jacobi_symbolic", "coord", "jacobi_symbolic"),
    ("coord.kernel_obstruction_verify", "coord", "kernel_obstruction_verify"),
    ("coord.preservation_residual", "coord", "preservation_residual"),
    ("coord.hessian_at", "coord", "hessian_at"),
    ("specfile.parse_spec_text", "specfile", "parse_spec_text"),
    ("specfile.build_homspace", "specfile", "SpecDocument.build_homspace"),
    ("catalog.build_homspace", "catalog", "build_homspace"),
    ("catalog.build_model", "catalog", "build_model"),
)

# per-layer metrics derived from several spans: (name, unit)
DERIVED = (
    ("linalg.rref.cells", "count"),
    ("linalg.rref.per_row", "count"),
    ("homspace.coisotropy_check.per_row", "count"),
    ("coord.rk4_flow.evals_per_step", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead", "ratio"),
)


def _rref_cells(args, kwargs) -> int:
    mat = args[0] if args else kwargs["mat"]
    return len(mat) * len(mat[0]) if mat else 0


def _rk4_steps(args, kwargs) -> int:
    T = kwargs["T"] if "T" in kwargs else args[3]
    dt = kwargs["dt"] if "dt" in kwargs else args[4]
    return int(round(T / dt))


# extra count recorded on each span of these functions
_EXTRA = {"linalg.rref": _rref_cells, "coord.rk4_flow": _rk4_steps}


class Tracer:
    """Spans in flat arrays: the i-th span is (names[i], parents[i], ops[i],
    starts[i], ends[i], extras[i]); parent -1 marks a span with no traced
    caller, op -1 a span recorded during set-up."""

    def __init__(self):
        self.names = array.array("H")
        self.parents = array.array("i")
        self.ops = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.extras = array.array("i")
        self.current = -1
        self.op = -1
        self.on = False

    def __len__(self) -> int:
        return len(self.starts)

    def wrap(self, fn, name_id: int, extra):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(self.starts)
            parent = self.current
            self.names.append(name_id)
            self.parents.append(parent)
            self.ops.append(self.op)
            self.extras.append(extra(args, kwargs) if extra else 0)
            self.ends.append(0.0)
            self.current = idx
            self.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self.current = parent

        return wrapper

    def self_times(self, start: int = 0, stop: int | None = None):
        """Per wrapped function, over spans ``start:stop``: calls, self time
        (duration minus the time of direct child spans) and the sum of the
        recorded extra counts."""
        k = len(WRAPPED)
        calls, self_s, extra = [0] * k, [0.0] * k, [0] * k
        names, parents = self.names, self.parents
        for i in range(start, len(self) if stop is None else stop):
            f = names[i]
            d = self.ends[i] - self.starts[i]
            calls[f] += 1
            self_s[f] += d
            extra[f] += self.extras[i]
            p = parents[i]
            if p >= start:
                self_s[names[p]] -= d
        return calls, self_s, extra

    def calls_under(self, parent_id: int, child_id: int) -> int:
        """Spans of ``child_id`` whose direct parent is a ``parent_id`` span."""
        names = self.names
        return sum(
            1
            for f, p in zip(names, self.parents)
            if f == child_id and p >= 0 and names[p] == parent_id
        )

    def write(self, path: Path, header: dict) -> None:
        """One JSON header line, then the raw bytes of each array in the order
        the header's ``arrays`` field lists them."""
        fields = ("names", "parents", "ops", "starts", "ends", "extras")
        meta = dict(
            header,
            spans=len(self),
            names=[w[0] for w in WRAPPED],
            arrays=[[f, getattr(self, f).typecode] for f in fields],
            byteorder=sys.byteorder,
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write((json.dumps(meta) + "\n").encode())
            for f in fields:
                getattr(self, f).tofile(fh)


def install(tracer: Tracer) -> None:
    """Route every lookup of each WRAPPED function through the tracer."""
    modules = [m for n, m in sys.modules.items() if n == "poishom" or n.startswith("poishom.")]
    for name_id, (metric, modname, path) in enumerate(WRAPPED):
        owner = importlib.import_module(f"poishom.{modname}")
        for part in path.split("."):
            owner = getattr(owner, part)
        original = owner
        wrapper = tracer.wrap(original, name_id, _EXTRA.get(metric))
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
                elif isinstance(value, type) and value.__module__.startswith("poishom"):
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            setattr(value, cattr, wrapper)
