"""Outside-in layer tracing for quadsim.

The tracer replaces public entry points of each quadsim module with wrappers
that record a span per call: name, start, end, parent span and a few counts.
A function is replaced in the module that defines it and under every other
name a quadsim module binds it to (``sweeps.evolve`` and
``propagator.evolve`` are the same function), so each call is seen wherever
its caller looks it up and the program's own code is untouched.  A name that
no longer exists is reported as absent; its time then falls into the layer
that called it.  Spans stay in memory and are written out once, when the
traced CLI call has returned.

A layer's self time is its spans' durations minus the time their direct child
spans cover.  Every span name maps to exactly one metric, so the self times
sum to the duration of the root ``cli.main`` span, less the speed probes
(``trace.probe``, see speed.py), which belong to no layer.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from contextlib import contextmanager
from time import perf_counter

PROBE = "trace.probe"


def resolved_steps(req, propagator) -> int:
    """Steps an EvolveRequest asks for, with the propagator's default filled in."""
    return int(req.steps) if req.steps is not None else int(propagator.DEFAULT_STEPS[req.model.dim])


def expm_counts(a) -> dict:
    """Work expm_small does on the batch `a` by its own rule: one squaring count
    k from the largest Frobenius norm, then 16 Horner and k squaring matmuls
    per matrix."""
    import numpy as np

    a = np.asarray(a)
    n = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    norms = np.linalg.norm(a, axis=(-2, -1))
    max_norm = float(np.max(norms)) if norms.size else 0.0
    k = 0 if max_norm <= 0.5 else int(math.ceil(math.log2(max_norm / 0.5)))
    return {"matrices": n, "squarings": k * n, "matmuls": (16 + k) * n}


def replace_everywhere(owner, attr: str, make_wrapper) -> bool:
    """Set owner.attr to make_wrapper(original).  When owner is a module, also
    rebind every quadsim module global that holds the same object.  False if
    owner has no such attribute."""
    original = getattr(owner, attr, None)
    if original is None:
        return False
    wrapper = make_wrapper(original)
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return True
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "quadsim" or name.startswith("quadsim.")):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return True


def _rows_reported(comparison) -> dict:
    return {"rows": sum(len(s.rows) for s in comparison.sweeps.values())}


class Tracer:
    """In-memory span recorder for one traced CLI call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent record or None, counts]
        self.absent: list[str] = []
        self._stack: list[list] = []

    @contextmanager
    def span(self, name: str):
        # Parents are held as records, not indices: a speed probe can open a
        # span from a signal handler between any two of these statements.
        record = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else None, None]
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Record a span `name` around every call of owner.attr.  `counts`,
        when given, maps (args, result) to a dict stored on the span; it runs
        in its own ``trace.bookkeeping`` span so no layer is charged for it."""

        def make_wrapper(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                with self.span(name) as record:
                    result = original(*args, **kwargs)
                if counts is not None:
                    with self.span("trace.bookkeeping"):
                        record[4] = counts(args, result)
                return result

            return traced

        if not replace_everywhere(owner, attr, make_wrapper):
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")

    def install(self, quadsim) -> None:
        """Wrap the entry points of every quadsim layer."""
        cli, sweeps, propagator = quadsim.cli, quadsim.sweeps, quadsim.propagator
        schedule, core = quadsim.schedules.PulseSchedule, quadsim.core_model
        targets = [
            (quadsim.config, "load_config", "config.load_config", None),
            (sweeps, "run_protocol", "sweeps.run_protocol", None),
            (sweeps, "run_sweep", "sweeps.run_sweep", None),
            (sweeps, "compare_protocols", "sweeps.compare_protocols", None),
            (propagator, "evolve", "propagator.evolve",
             lambda args, r: {"steps": resolved_steps(args[0], propagator)}),
            (propagator, "expm_small", "propagator.expm_small", lambda args, r: expm_counts(args[0])),
            (propagator, "_unitarize", "propagator.unitarize", None),
            (propagator, "_chain_apply", "propagator.chain_apply", None),
            (schedule, "delta", "schedules.delta", None),
            (schedule, "pulses", "schedules.pulses", None),
            (core.TwoLevelModel, "hamiltonian_batch", "core_model.hamiltonian_batch", None),
            (core.LambdaModel, "hamiltonian_batch", "core_model.hamiltonian_batch", None),
            (quadsim.analysis, "transfer_metrics", "analysis.transfer_metrics", None),
            (propagator, "write_trajectory_csv", "propagator.write_trajectory_csv", None),
            # rows reported are counted where they are written
            (cli, "_write_metrics_csv", "cli.write", lambda args, r: {"rows": 1}),
            (sweeps, "write_sweep_csv", "cli.write", lambda args, r: {"rows": len(args[0].rows)}),
            (sweeps, "write_comparison_worst_csv", "cli.write", lambda args, r: _rows_reported(args[0])),
            (sweeps, "write_comparison_dominance_csv", "cli.write", None),
            (quadsim.plotting, "write_line_svg", "plotting.write_line_svg", None),
        ]
        for owner, attr, name, counts in targets:
            self.wrap(owner, attr, name, counts)

    def dump(self, path) -> None:
        index = {id(record): i for i, record in enumerate(self.spans)}
        spans = [
            {"name": n, "start": s, "end": e, "parent": -1 if p is None else index[id(p)],
             "counts": c or {}}
            for n, s, e, p, c in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "absent": self.absent, "spans": spans}, fh)


class StepCounter:
    """Trace-off stand-in: counts evolve calls and their steps, no spans."""

    def __init__(self):
        self.steps = 0
        self.evolves = 0

    def install(self, quadsim) -> None:
        propagator = quadsim.propagator

        def make_wrapper(original):
            @functools.wraps(original)
            def counted(req, *args, **kwargs):
                result = original(req, *args, **kwargs)
                self.steps += resolved_steps(req, propagator)
                self.evolves += 1
                return result

            return counted

        if not replace_everywhere(propagator, "evolve", make_wrapper):
            raise RuntimeError("quadsim.propagator.evolve not found; steps cannot be counted")


# Every span name belongs to exactly one self-time metric.
SELF_TIME_METRICS = {
    "cli.self_s": ("cli.main",),
    "config.load_config.self_s": ("config.load_config",),
    "sweeps.self_s": ("sweeps.run_protocol", "sweeps.run_sweep", "sweeps.compare_protocols"),
    "propagator.evolve.self_s": ("propagator.evolve",),
    "propagator.expm_small.self_s": ("propagator.expm_small",),
    "propagator.unitarize.self_s": ("propagator.unitarize",),
    "propagator.chain_apply.self_s": ("propagator.chain_apply",),
    "schedules.sample.self_s": ("schedules.delta", "schedules.pulses"),
    "core_model.hamiltonian_batch.self_s": ("core_model.hamiltonian_batch",),
    "analysis.transfer_metrics.self_s": ("analysis.transfer_metrics",),
    "propagator.write_trajectory_csv.self_s": ("propagator.write_trajectory_csv",),
    "cli.write.self_s": ("cli.write", "plotting.write_line_svg"),
    "trace.bookkeeping_s": ("trace.bookkeeping",),
}


def layer_metrics(trace: dict, scale: float = 1.0) -> dict[str, float]:
    """Self times and counts of one traced call, keyed by metric name.  Times
    are multiplied by `scale`, the call's speed rescaling (see speed.py)."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            # only the part inside the parent: a probe may fire as it closes
            covered = min(s["end"], parent["end"]) - max(s["start"], parent["start"])
            child_time[s["parent"]] += max(0.0, covered)
    self_by_name: dict[str, float] = {}
    counts: dict[str, dict[str, int]] = {}
    calls: dict[str, int] = {}
    for s, covered in zip(spans, child_time):
        name = s["name"]
        if name == PROBE:
            continue
        self_by_name[name] = self_by_name.get(name, 0.0) + scale * (s["end"] - s["start"] - covered)
        calls[name] = calls.get(name, 0) + 1
        bucket = counts.setdefault(name, {})
        for key, value in s["counts"].items():
            bucket[key] = bucket.get(key, 0) + value

    known = {n for names in SELF_TIME_METRICS.values() for n in names}
    unknown = set(self_by_name) - known
    if unknown:
        raise ValueError(f"span names without a metric: {sorted(unknown)}")
    out = {
        metric: sum(self_by_name.get(n, 0.0) for n in names)
        for metric, names in SELF_TIME_METRICS.items()
    }
    expm = counts.get("propagator.expm_small", {})
    matrices = expm.get("matrices", 0)
    out["propagator.expm_small.ns_per_step"] = (
        out["propagator.expm_small.self_s"] / matrices * 1e9 if matrices else 0.0
    )
    out["propagator.expm_small.squarings"] = expm.get("squarings", 0)
    out["propagator.expm_small.matmuls"] = expm.get("matmuls", 0)
    evolves = calls.get("propagator.evolve", 0)
    out["propagator.evolve.steps"] = counts.get("propagator.evolve", {}).get("steps", 0)
    out["sweeps.evolve_calls"] = evolves
    rows = counts.get("cli.write", {}).get("rows", 0)
    out["sweeps.useful_ratio"] = rows / evolves if evolves else 0.0
    out["trace.layer_sum_s"] = sum(self_by_name.values())
    out["trace.absent_layers"] = len(trace["absent"])
    return out
