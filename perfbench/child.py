"""One fresh interpreter per measurement.

    child.py setup SRC CONFIG RESULT_JSON
        import quadsim and parse CONFIG with load_config, then write the
        moment that finished (perf_counter, a system-wide monotonic clock on
        Linux, so the caller can subtract its spawn time) and the reference
        kernel's time to RESULT_JSON.
    child.py run SRC RESULT_JSON ARGV_JSON [TRACE_JSON RUN_ID]
        run quadsim.cli.main(ARGV) once and write its raw and speed-rescaled
        wall time (see speed.py), exit code, counted steps and peak RSS to
        RESULT_JSON.  With TRACE_JSON, every layer is traced instead of the
        steps being counted, and the spans are written there.

SRC is the source tree to import quadsim from; an installed copy is refused.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter


def _import_quadsim(src: str):
    sys.path.insert(0, src)
    quadsim = importlib.import_module("quadsim")
    origin = Path(quadsim.__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        raise SystemExit(f"quadsim imported from {origin}, not from {src}")
    for module in ("config", "cli", "sweeps", "propagator", "plotting"):
        importlib.import_module(f"quadsim.{module}")
    return quadsim


def setup(src: str, config: str, result_path: str) -> int:
    quadsim = _import_quadsim(src)
    quadsim.config.load_config(config)
    ready = perf_counter()
    from speed import reference_s

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"ready": ready, "reference_s": 0.5 * (reference_s() + reference_s())}, fh)
    return 0


def run(src: str, result_path: str, argv_json: str, trace_path: str | None, run_id: str) -> int:
    quadsim = _import_quadsim(src)
    argv = json.loads(argv_json)
    from speed import Speedometer
    from tracer import PROBE, StepCounter, Tracer

    if trace_path:
        tracer = Tracer(run_id)
        tracer.install(quadsim)
        with Speedometer(lambda: tracer.span(PROBE)) as speed, tracer.span("cli.main"):
            rc = quadsim.cli.main(argv)
        tracer.dump(trace_path)
        steps, evolves = None, None
    else:
        counter = StepCounter()
        counter.install(quadsim)
        with Speedometer() as speed:
            rc = quadsim.cli.main(argv)
        steps, evolves = counter.steps, counter.evolves
    raw, wall = speed.times()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"rc": rc, "raw_wall_s": raw, "wall_s": wall, "steps": steps, "evolves": evolves,
             "peak_rss_mb": peak_kib / 1024.0, "pid": os.getpid()},
            fh,
        )
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        raise SystemExit(setup(*rest))
    if mode == "run":
        src, result_path, argv_json = rest[:3]
        trace_path, run_id = (rest[3], rest[4]) if len(rest) > 3 else (None, "")
        raise SystemExit(run(src, result_path, argv_json, trace_path, run_id))
    raise SystemExit(f"unknown mode {mode!r}")
