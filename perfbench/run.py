"""Seeded end-to-end benchmark of the quadsim CLI.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload is a config generated from --seed and written to a fresh
directory under perfbench/.work; quadsim sees only that file.  Every
measurement is one `quadsim.cli.main` call in a fresh interpreter, repeated
while the next call still fits in --seconds (at least one call).  Calls run
single-worker: QUAD_WORKERS is removed from the child's environment, because
pool scaling on a small shared machine would measure the scheduler.

--trace 0 reports the end-to-end metrics: median wall time and steps per
second of the calls, median set-up time of a fresh interpreter that imports
quadsim and parses the config, and the calls' peak RSS.  --trace 1 alternates
untraced and traced calls and reports per-layer self times and counts from
the traced ones (see tracer.py), plus the tracing overhead.

Every time reported is rescaled to a reference machine speed (speed.py): the
shared cores this runs on change speed by tens of percent for minutes at a
time, which would otherwise swamp any regression bound.  The raw medians are
printed beside the rescaled ones.

Every call's outputs go through the gate (gate.py); one seeded point per run
is checked against an independent scipy oracle outside the timed region.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only if the gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gate
import speed
import workloads
from tracer import SELF_TIME_METRICS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_SAMPLES = 11
CALL_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_METRICS},
    "propagator.expm_small.ns_per_step": "ns",
    "propagator.expm_small.squarings": "count",
    "propagator.expm_small.matmuls": "count",
    "propagator.evolve.steps": "count",
    "sweeps.evolve_calls": "count",
    "sweeps.useful_ratio": "ratio",
    "output.bytes": "bytes",
    "trace.wall_s": "s",
    "trace.layer_sum_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.absent_layers": "count",
}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    """The parent's environment, single-worker, with BLAS threads capped at nproc."""
    env = dict(os.environ)
    env.pop("QUAD_WORKERS", None)
    cap = nproc()
    for var in THREAD_VARS:
        try:
            env[var] = str(min(cap, max(1, int(env[var]))))
        except (KeyError, ValueError):
            env[var] = str(cap)
    return env


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import scipy

    env = child_env()
    return {
        "seed": seed,
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "quad_workers": "unset (single worker)",
    }


@dataclass
class Call:
    traced: bool
    ops: int
    rc: int | None
    raw_wall_s: float = 0.0
    wall_s: float = 0.0  # rescaled to reference speed (speed.py)
    steps: int | None = None  # None when traced
    peak_rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)
    failed: int = 0
    problems: list = field(default_factory=list)
    digest: str = ""
    output_bytes: int = 0

    def fail(self, count: int, problem: str) -> None:
        """Mark at least `count` of this call's operations failed."""
        self.failed = min(self.ops, max(self.failed, count))
        self.problems.append(problem)


class Runner:
    """Runs one workload's calls and checks their outputs."""

    def __init__(self, wl: workloads.Workload, seed: int, workdir: Path):
        self.wl, self.seed, self.workdir = wl, seed, workdir
        self.config = workdir / f"{wl.name}.cfg"
        self.config.write_text(wl.config_text, encoding="utf-8")
        self.out = workdir / "out"
        self.env = child_env()
        self.calls: list[Call] = []

    def _child(self, *args: str) -> subprocess.CompletedProcess:
        with open(self.workdir / "child.log", "ab") as log:
            return subprocess.run(
                [sys.executable, str(HERE / "child.py"), *args],
                cwd=self.workdir, env=self.env, stdout=log, stderr=log,
                timeout=CALL_TIMEOUT_S, check=False,
            )

    def setup_s(self) -> tuple[float, float]:
        """Median time from spawning a fresh interpreter to it having imported
        quadsim and parsed the config, rescaled to reference speed (see
        speed.py) and raw, after one uncounted call that fills the bytecode
        cache."""
        rescaled, raw = [], []
        result_path = self.workdir / "setup.json"
        for i in range(SETUP_SAMPLES + 1):
            spawned = time.perf_counter()
            proc = self._child("setup", str(SRC), str(self.config), str(result_path))
            if proc.returncode != 0:
                raise RuntimeError(f"set-up child exited with {proc.returncode}; see {self.workdir / 'child.log'}")
            result = json.loads(result_path.read_text(encoding="utf-8"))
            if i:
                raw.append(result["ready"] - spawned)
                rescaled.append(raw[-1] * speed.NOMINAL_S / result["reference_s"])
        return statistics.median(rescaled), statistics.median(raw)

    def call(self, traced: bool) -> Call:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        n = len(self.calls)
        result_path = self.workdir / f"call{n}.json"
        args = ["run", str(SRC), str(result_path),
                json.dumps(self.wl.argv(str(self.config), str(self.out)))]
        if traced:
            trace_path = self.workdir / f"trace{n}.json"
            args += [str(trace_path), f"{self.wl.name}-s{self.seed}-call{n}"]
        try:
            self._child(*args)
            result = json.loads(result_path.read_text(encoding="utf-8"))
        except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
            call = Call(traced, self.wl.ops, None)
            call.fail(self.wl.ops, f"call {n}: {exc!r}")
            self.calls.append(call)
            return call
        call = Call(traced, self.wl.ops, result["rc"], result["raw_wall_s"], result["wall_s"],
                    result["steps"], result["peak_rss_mb"])
        check = gate.check_outputs(self.wl, self.out, call.rc)
        call.failed, call.problems = check.failed, check.problems
        if call.rc == 0:
            call.digest = gate.output_digest(self.out)
            call.output_bytes = gate.output_bytes(self.out)
        if traced:
            call.layers = layer_metrics(json.loads(trace_path.read_text(encoding="utf-8")),
                                        call.wall_s / call.raw_wall_s)
        self.calls.append(call)
        return call

    def measure(self, seconds: float, traced: bool) -> None:
        """Calls until the next one would end after `seconds`; with `traced`,
        untraced and traced calls alternate and come in pairs."""
        started = time.perf_counter()
        unit = (False, True) if traced else (False,)
        costs = []
        while True:
            t0 = time.perf_counter()
            for kind in unit:
                self.call(kind)
            costs.append(time.perf_counter() - t0)
            if time.perf_counter() - started + statistics.median(costs) > seconds:
                break

    def gate_all(self) -> tuple[int, int, list[str], gate.OracleResult | None]:
        """attempted, failed, problems and the oracle result over all calls."""
        ops = self.wl.ops
        first = next((c.digest for c in self.calls if c.digest), "")
        for n, c in enumerate(self.calls):
            if c.rc != 0:
                continue
            if c.digest != first:
                c.fail(ops, f"call {n}: outputs differ from the first call's")
            if c.steps == 0:
                c.fail(ops, f"call {n}: no propagation step was counted")
        oracle = None
        if self.calls[-1].rc == 0:  # its outputs are still in self.out
            oracle = gate.oracle_check(self.wl, self.out, self.seed)
            if oracle.problem:
                self.calls[-1].fail(1, oracle.problem)
        problems = [p for c in self.calls for p in c.problems]
        return ops * len(self.calls), sum(c.failed for c in self.calls), problems, oracle


def end_to_end(runner: Runner, setup: tuple[float, float]) -> dict:
    plain = [c for c in runner.calls if not c.traced and c.rc == 0]
    if not plain:
        return {}
    return {
        "wall_s": statistics.median(c.wall_s for c in plain),
        "steps_per_s": statistics.median(c.steps / c.wall_s for c in plain),
        "setup_s": setup[0],
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in plain),
    }


def per_layer(runner: Runner) -> dict:
    plain = [c for c in runner.calls if not c.traced and c.rc == 0]
    traced = [c for c in runner.calls if c.traced and c.rc == 0]
    if not plain or not traced:
        return {}
    out = {name: statistics.median(c.layers[name] for c in traced) for name in traced[0].layers}
    out["output.bytes"] = statistics.median(c.output_bytes for c in traced)
    traced_wall = statistics.median(c.wall_s for c in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_frac"] = traced_wall / statistics.median(c.wall_s for c in plain) - 1.0
    return out


def spread(values) -> str:
    values = sorted(values)
    return f"min {values[0]:.4g}, max {values[-1]:.4g}, n={len(values)}"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: workloads.Sizes = workloads.FULL) -> dict:
    wl = workloads.build(name, seed, sizes)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=WORK))
    runner = Runner(wl, seed, workdir)
    setup = None if trace else runner.setup_s()
    runner.measure(seconds, trace)
    attempted, failed, problems, oracle = runner.gate_all()
    metrics = per_layer(runner) if trace else end_to_end(runner, setup)
    shutil.rmtree(runner.out, ignore_errors=True)

    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    print(f"== {name}: {wl.command} {' '.join(wl.flags)}, {wl.evolves} evolves x {wl.steps} steps"
          f" per call, {len(runner.calls)} calls, work dir {workdir.relative_to(ROOT)}")
    plain = [c for c in runner.calls if not c.traced and c.rc == 0]
    for key in units:
        if key in metrics:
            note = ""
            if key == "wall_s":
                note = f"  (raw median {statistics.median(c.raw_wall_s for c in plain):.4g}; {spread(c.wall_s for c in plain)})"
            elif key == "setup_s":
                note = f"  (raw median {setup[1]:.4g})"
            print(f"  {key:<42} {metrics[key]:>14.6g} {units[key]}{note}")
    print(f"  {'failed_frac':<42} {failed / attempted:>14.6g} ratio ({failed} of {attempted} operations)")
    if oracle is not None:
        print(f"  oracle {oracle.point}: deviation {oracle.deviation:.3e}, tolerance {oracle.tolerance:.3e}")
    if trace and metrics:
        gap = metrics["trace.wall_s"] - metrics["trace.layer_sum_s"]
        frac = metrics["trace.overhead_frac"]
        overhead = metrics["trace.wall_s"] * frac / (1.0 + frac)  # traced - untraced wall
        print(f"  traced wall - layer self-time sum = {gap:.3e} s (tracing overhead {overhead:.3e} s)")
    for p in problems[:20]:
        print(f"  FAILED: {p}")
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "units": units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few hundred steps per evolve, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "quadsim" / "cli.py").is_file():
        print(f"quadsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sizes = workloads.TINY if args.size == "tiny" else workloads.FULL
    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    print("env " + json.dumps(environment(args.seed), sort_keys=True))

    attempted = failed = 0
    metrics = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), sizes)
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in res["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": res["units"][key]}
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
