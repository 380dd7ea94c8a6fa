"""Spans around the public functions of each ``dpsmap`` module.

The wrapping lives here, in the benchmark, not in the program: ``install``
rebinds every name under which a traced function is reachable inside the
package (module globals, class attributes and the values of module-level
dict tables such as the suite registry) and ``Tracer.uninstall`` restores
them.  A span is ``(name index, command index, parent span, start, end)``;
spans stay in memory until the pass ends and are then written out once.

``reduce_spans`` is stdlib-only, so run.py can turn written spans into
per-layer numbers without importing numpy.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path, reports total_s).  A function that calls no
# other traced function has total time equal to its self time, so it
# reports calls and self_s only; that keeps the per-layer list short.
TRACED = (
    ("gf2n", "field_context", True),
    ("gf2n", "FieldContext.__init__", False),
    ("pauli", "PhaseConvention.exponent_table", False),
    ("pauli", "displacement_overlaps", True),
    ("pauli", "check_fiducial", True),
    ("pauli", "displacement", True),
    ("pauli", "symmetrize", False),
    ("pauli", "permutation_op", False),
    ("kernels", "build_kernel", True),
    ("kernels", "KernelSet.at", False),
    ("kernels", "forward_map", False),
    ("kernels", "inverse_map", False),
    ("kernels", "overlap_check", True),
    ("kernels", "KernelSet.normalization_residual", True),
    ("kernels", "tomographic_check", True),
    ("kernels", "wootters_kernel", False),
    ("symproj", "project", False),
    ("symproj", "check_kernel_invariance", True),
    ("symproj", "symbol_depends_only_on_h", False),
    ("symproj", "symmetric_average", False),
    ("symproj", "find_theorem_witness", False),
    ("symproj", "search_invariant_phases", True),
    ("mubrot", "mub_family", True),
    ("mubrot", "build_V", False),
    ("mubrot", "check_unbiased", False),
    ("serialize", "psf_to_json", False),
    ("serialize", "psf_to_csv", False),
    ("serialize", "psf_to_gnuplot", False),
    ("serialize", "proj_to_json", False),
    ("serialize", "proj_to_csv", False),
    ("serialize", "proj_to_gnuplot", False),
    ("serialize", "mub_to_json", False),
    ("serialize", "load_symbol", False),
    ("serialize", "diff_grids", False),
    ("serialize", "diff_projected", False),
    ("suites", "field_suite", True),
    ("suites", "pauli_suite", True),
    ("suites", "mub_suite", True),
    ("suites", "kernel_suite", True),
    ("suites", "tomographic_suite", True),
    ("suites", "symmetric_suite", True),
    ("suites", "theorem_suite", True),
    ("cli", "main", True),
    ("cli", "build_parser", False),
    ("cli", "build_state", False),
)

COUNTERS = {
    "kernels.dense_table_bytes": "B",
    "serialize.bytes_out": "B",
    "serialize.bytes_in": "B",
    "suites.checks": "count",
    "suites.checks_failed": "count",
}


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.removesuffix('.__init__')}"


def per_layer_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for module, path, with_total in TRACED:
        name = span_name(module, path)
        units[f"{name}.calls"] = "count"
        if with_total:
            units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units.update({"trace.spans": "count", "trace.wall_s": "s",
                  "trace.overhead_s": "s"})
    return units


# ----------------------------------------------------------------------
# recording (runs in the child, with dpsmap imported)
# ----------------------------------------------------------------------

def _count_result(tracer, name, args, result):
    """Counters measured at the boundary where the work happens."""
    c = tracer.counters
    if name in ("kernels.build_kernel", "kernels.wootters_kernel"):
        table = getattr(result, "_table", None)
        if table is not None:
            c["kernels.dense_table_bytes"] += table.nbytes
    elif name.startswith("serialize.") and "_to_" in name:
        c["serialize.bytes_out"] += len(result)
    elif name == "serialize.load_symbol":
        c["serialize.bytes_in"] += len(args[0])
    elif name.startswith("suites."):
        c["suites.checks"] += len(result["checks"])
        c["suites.checks_failed"] += sum(not chk["passed"]
                                         for chk in result["checks"])


class Tracer:
    """Span recorder for one pass; ``command`` is set by the caller."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.command = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._restore = []

    def _wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, self.command, parent, start, end)
            _count_result(self, name, args, result)
            return result
        return traced

    def install(self):
        """Wrap every function in TRACED; returns self."""
        modules = [m for key, m in sys.modules.items()
                   if key == "dpsmap" or key.startswith("dpsmap.")]
        for module_name, path, _ in TRACED:
            owner = sys.modules[f"dpsmap.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                wrapper = self._wrap(span_name(module_name, path), original)
                setattr(owner, attr, wrapper)
                self._restore.append((setattr, owner, attr, original))
            else:
                original = getattr(owner, attr)
                wrapper = self._wrap(span_name(module_name, path), original)
                self._rebind(modules, original, wrapper)
        return self

    def _rebind(self, modules, original, wrapper):
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._restore.append((setattr, module, key, original))
                elif isinstance(value, dict):
                    self._rebind_table(value, original, wrapper)

    def _rebind_table(self, table, original, wrapper):
        for key, value in table.items():
            if value is original:
                new = wrapper
            elif isinstance(value, tuple) and any(v is original for v in value):
                new = tuple(wrapper if v is original else v for v in value)
            else:
                continue
            table[key] = new
            self._restore.append((dict.__setitem__, table, key, value))

    def uninstall(self):
        for action, owner, key, value in reversed(self._restore):
            action(owner, key, value)
        self._restore.clear()

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counters": self.counters}


# ----------------------------------------------------------------------
# reduction (stdlib only; runs in run.py)
# ----------------------------------------------------------------------

def reduce_spans(record: dict) -> dict:
    """Per-function calls, total and self seconds, plus the counters.

    Self time is a span's duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    names, spans = record["names"], record["spans"]
    child = [0.0] * len(spans)
    for _, _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = [0] * len(names)
    total = [0.0] * len(names)
    own = [0.0] * len(names)
    for i, (index, _, _, start, end) in enumerate(spans):
        calls[index] += 1
        total[index] += end - start
        own[index] += end - start - child[i]
    out = {}
    for index, name in enumerate(names):
        out[f"{name}.calls"] = calls[index]
        out[f"{name}.total_s"] = total[index]
        out[f"{name}.self_s"] = own[index]
    out.update(record["counters"])
    out["trace.spans"] = len(spans)
    return out
