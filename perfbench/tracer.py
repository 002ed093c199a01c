"""Span tracer for the benchmark's traced run.

The tracer replaces the package's public functions with timing wrappers on
every ``dqc1`` module attribute that holds them, so a call is traced whichever
module it is made through (``dqc1.cli.negativity_eigen`` and
``dqc1.ensemble.negativity_eigen`` are the same function).  Nothing in the
package changes: :meth:`Tracer.install` swaps the attributes in and
:meth:`Tracer.uninstall` puts the originals back.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (or -1).  Spans and counters stay in memory; the caller turns
them into per-layer metrics once the run is over and may write the spans to
a file then.
"""

from __future__ import annotations

import json
import os
import sys
import time

# (module, function) pairs timed as layers; ``rng`` is too thin to time.
TRACED = [
    ("cli", "main"),
    ("ensemble", "pseudo_random_unitary"),
    ("ensemble", "negativity_sweep"),
    ("family", "build_family"),
    ("state", "build_state"),
    ("state", "estimate_trace"),
    ("linalg", "require_unitary"),
    ("linalg", "require_density"),
    ("linalg", "partial_transpose"),
    ("linalg", "hermitian_eigenvalues"),
    ("linalg", "singular_values"),
    ("linalg", "load_unitary"),
    ("negativity", "negativity_eigen"),
    ("negativity", "negativity_singular"),
    ("bounds", "bound_s123"),
    ("bounds", "bound_s12"),
    ("pathsum", "load_circuit"),
    ("pathsum", "prepare_circuit"),
    ("pathsum", "compile_circuit"),
    ("pathsum", "exact_trace_enumeration"),
    ("pathsum", "path_class_counts"),
    ("pathsum", "dense_trace"),
    ("pathsum", "circuit_unitary"),
    ("pathsum", "sampled_trace"),
]

# Per-layer metrics in report order: (name, unit).  Self times, counts and the
# trace.* round times are means per round, so runs with different round counts
# compare directly and the self times add up to trace.run_s.
LAYER_METRICS = [
    ("ensemble.pseudo_random_unitary.self_s", "s"),
    ("ensemble.pseudo_random_unitary.calls", "count"),
    ("ensemble.negativity_sweep.self_s", "s"),
    ("linalg.require_density.self_s", "s"),
    ("linalg.hermitian_eigenvalues.self_s", "s"),
    ("linalg.hermitian_eigenvalues.calls", "count"),
    ("negativity.negativity_eigen.self_s", "s"),
    ("negativity.negativity_eigen.calls", "count"),
    ("linalg.singular_values.self_s", "s"),
    ("linalg.singular_values.calls", "count"),
    ("negativity.negativity_singular.self_s", "s"),
    ("negativity.negativity_singular.calls", "count"),
    ("state.build_state.self_s", "s"),
    ("state.build_state.bytes", "B"),
    ("linalg.require_unitary.self_s", "s"),
    ("linalg.partial_transpose.self_s", "s"),
    ("linalg.load_unitary.self_s", "s"),
    ("linalg.load_unitary.bytes", "B"),
    ("family.build_family.self_s", "s"),
    ("state.estimate_trace.self_s", "s"),
    ("state.estimate_trace.runs", "count"),
    ("bounds.bound_s123.self_s", "s"),
    ("bounds.bound_s123.calls", "count"),
    ("bounds.bound_s12.self_s", "s"),
    ("pathsum.exact_trace_enumeration.self_s", "s"),
    ("pathsum.exact_trace_enumeration.calls", "count"),
    ("pathsum.exact_trace_enumeration.refused", "count"),
    ("pathsum.path_class_counts.self_s", "s"),
    ("pathsum.dense_trace.self_s", "s"),
    ("pathsum.circuit_unitary.self_s", "s"),
    ("pathsum.evaluations_per_trace", "calls/trace"),
    ("pathsum.load_circuit.self_s", "s"),
    ("pathsum.prepare_circuit.self_s", "s"),
    ("pathsum.compile_circuit.self_s", "s"),
    ("pathsum.compile_circuit.path_bits", "bits"),
    ("pathsum.sampled_trace.self_s", "s"),
    ("pathsum.sampled_trace.samples", "count"),
    ("cli.main.self_s", "s"),
    ("cli.main.calls", "count"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.covered_share", "share"),
]

# evaluators the CLI runs for one exact path-sum trace
_EXACT_EVALUATORS = ("pathsum.exact_trace_enumeration", "pathsum.path_class_counts",
                     "pathsum.dense_trace")


def _record_counts(count: dict[str, float], name: str, args, result, raised: bool) -> None:
    """Counters kept at the layer boundary, from arguments and results only."""
    if name == "state.build_state" and not raised:
        count[name + ".bytes"] += 16 * (2 * result.unitary.shape[0]) ** 2
    elif name == "linalg.load_unitary":
        count[name + ".bytes"] += os.path.getsize(args[0])
    elif name == "state.estimate_trace" and not raised:
        count[name + ".runs"] += result.runs_used
    elif name == "pathsum.compile_circuit" and not raised:
        count[name + ".path_bits"] += result.n_path_bits
    elif name == "pathsum.sampled_trace":
        count[name + ".samples"] += args[1]
    elif name == "pathsum.exact_trace_enumeration" and raised:
        count[name + ".refused"] += 1
    if name in _EXACT_EVALUATORS and not raised:
        count["pathsum.evaluations"] += 1


class Tracer:
    """Timing wrappers over the package's module attributes, plus span storage."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.counters.update({name: 0 for name, unit in LAYER_METRICS if unit != "s"})
        self.counters["pathsum.evaluations"] = 0

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
                self.counters[name + ".calls"] = self.counters.get(name + ".calls", 0) + 1
                _record_counts(self.counters, name, args, None if raised else result, raised)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every ``dqc1`` module attribute bound to a traced function."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "dqc1" or key.startswith("dqc1."))]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules["dqc1." + mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the children's durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, parent), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer, rounds: int, traced_run_s: float,
                  untraced_run_s: float, exact_traces: int) -> dict[str, float]:
    """Every per-layer metric, per traced round."""
    selfs = tracer.self_times()
    values: dict[str, float] = {}
    for name, unit in LAYER_METRICS:
        if name.endswith(".self_s"):
            values[name] = selfs.get(name[: -len(".self_s")], 0.0) / rounds
        elif not name.startswith("trace.") and name != "pathsum.evaluations_per_trace":
            values[name] = tracer.counters.get(name, 0) / rounds
    evaluations = tracer.counters["pathsum.evaluations"]
    values["pathsum.evaluations_per_trace"] = evaluations / exact_traces if exact_traces else 0.0
    values["trace.run_s"] = traced_run_s
    values["trace.untraced_run_s"] = untraced_run_s
    values["trace.overhead_s"] = traced_run_s - untraced_run_s
    values["trace.self_sum_s"] = sum(selfs.values()) / rounds
    # cli.main is the root span of every operation, so the self times always add
    # up to the traced round; what the layers account for is the rest of it
    values["trace.covered_share"] = 1.0 - values["cli.main.self_s"] / traced_run_s
    return values
