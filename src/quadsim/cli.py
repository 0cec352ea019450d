"""Command-line front end: simulate | sweep | compare, driven by config files.

Exit codes: 0 success, 1 configuration error, 2 integration failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import transfer_metrics
from .config import ConfigError, RunConfig, load_config, preset_names
from .propagator import IntegrationError, write_trajectory_csv
from .sweeps import (
    Axis,
    RunSpec,
    SweepError,
    TARGET_INDEX,
    compare_protocols,
    run_protocol,
    run_sweep,
    worker_count,
    write_comparison_dominance_csv,
    write_comparison_worst_csv,
    write_sweep_csv,
)

_FLOAT_FMT = ".15e"
_AXIS_LABELS = {
    Axis.DURATION: "operation time (s)",
    Axis.AMPLITUDE_SCALE: "amplitude scale",
    Axis.DETUNING_OFFSET: "detuning offset (rad/s)",
}


def _out_stem(cfg_arg: str, out_dir: Path) -> Path:
    return out_dir / Path(cfg_arg).stem


def _make_out_dir(out_dir: Path, source: str) -> None:
    # before any run, so that an unusable directory costs no evolve
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{source} {out_dir}: not a usable directory ({exc})") from exc


def _require_durations(run: RunSpec) -> None:
    for protocol in run.protocols:
        if protocol not in run.durations:
            raise ConfigError(f"missing required key: T_{protocol.value}_s (or global T_s)")


def _write_metrics_csv(path, run: RunSpec, protocol, result, metrics) -> None:
    dim = result.populations.shape[0]
    pop_cols = ",".join(f"pop_{i + 1}" for i in range(dim))
    pop_vals = ",".join(format(p, _FLOAT_FMT) for p in result.populations)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"scenario,protocol,T_s,fidelity,error,final_norm_sq,{pop_cols},method,steps\n")
        fh.write(
            f"{run.scenario.value},{protocol.value},{format(run.durations[protocol], _FLOAT_FMT)},"
            f"{format(metrics.fidelity, _FLOAT_FMT)},{format(metrics.error, _FLOAT_FMT)},"
            f"{format(metrics.final_norm_sq, _FLOAT_FMT)},{pop_vals},"
            f"{run.method.value},{run.resolved_steps}\n"
        )


def cmd_simulate(cfg: RunConfig, cfg_arg: str, out_dir: Path, trajectory: bool) -> int:
    if len(cfg.run.protocols) != 1:
        raise ConfigError("key protocol: simulate requires exactly one protocol")
    _require_durations(cfg.run)
    protocol = cfg.run.protocols[0]
    try:
        result = run_protocol(cfg.run, protocol, store_trajectory=trajectory)
    except (IntegrationError, ValueError) as exc:
        # as sweep and compare report a failed run (sweeps._run_task)
        raise IntegrationError(f"simulate failed at protocol={protocol.value}: {exc}") from exc
    metrics = transfer_metrics(result.final, TARGET_INDEX)
    stem = _out_stem(cfg_arg, out_dir)
    _write_metrics_csv(f"{stem}.metrics.csv", cfg.run, protocol, result, metrics)
    if trajectory:
        write_trajectory_csv(result, f"{stem}.trajectory.csv")
    print(f"fidelity = {metrics.fidelity:.12e}")
    print(f"error = {metrics.error:.12e}")
    print(f"final_norm_sq = {metrics.final_norm_sq:.12e}")
    print(f"wrote {stem}.metrics.csv")
    return 0


def cmd_sweep(cfg: RunConfig, cfg_arg: str, out_dir: Path, plot: bool) -> int:
    if cfg.sweep is None:
        raise ConfigError("missing required key: [sweep] section with axis/lo/hi/points")
    result = run_sweep(cfg.sweep)
    stem = _out_stem(cfg_arg, out_dir)
    csv_path = f"{stem}.sweep.csv"
    write_sweep_csv(result, csv_path)
    meta = dict(result.metadata)
    meta.pop("wall_time_s", None)
    meta["config"] = cfg.raw
    with open(f"{stem}.meta.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if plot:
        from .plotting import write_line_svg

        axis = cfg.sweep.window.axis
        if axis is Axis.DURATION:
            ylabel, logy, ys = "transfer fidelity", False, result.fidelities_for
        else:
            ylabel, logy, ys = "transfer error", True, result.errors_for
        xs = result.axis_values()
        series = [(protocol.value, xs, ys(protocol)) for protocol in cfg.run.protocols]
        write_line_svg(f"{stem}.sweep.svg", series, _AXIS_LABELS[axis], ylabel, logy=logy)
        print(f"wrote {stem}.sweep.svg")
    print(f"wrote {csv_path} ({len(result.rows)} rows)")
    return 0


def cmd_compare(cfg: RunConfig, cfg_arg: str, out_dir: Path) -> int:
    _require_durations(cfg.run)
    result = compare_protocols(cfg.run, cfg.compare)
    stem = _out_stem(cfg_arg, out_dir)
    write_comparison_worst_csv(result, f"{stem}.compare_worst.csv")
    write_comparison_dominance_csv(result, f"{stem}.compare_dominance.csv")
    print(result.to_text())
    print(f"wrote {stem}.compare_worst.csv")
    print(f"wrote {stem}.compare_dominance.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadsim",
        description="Coherent population transfer simulator: detuning-sweep "
        "protocols, robustness sweeps, protocol comparisons.",
        epilog=f"bundled presets: {', '.join(preset_names())}",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run one protocol and report transfer metrics"),
        ("sweep", "scan fidelity over a parameter axis"),
        ("compare", "compare protocols over the default error axes"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="config file path or bundled preset name")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        if name == "simulate":
            p.add_argument("--trajectory", action="store_true", help="also dump the state trajectory CSV")
        if name == "sweep":
            p.add_argument("--plot", action="store_true", help="also write an SVG line plot")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        try:
            worker_count()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # config-level out_dir is the default; an explicit --out wins
        from_config = args.out == "." and bool(cfg.out_dir)
        out_dir = Path(cfg.out_dir) if from_config else Path(args.out)
        _make_out_dir(out_dir, "out_dir" if from_config else "--out")
        if args.command == "simulate":
            return cmd_simulate(cfg, args.config, out_dir, args.trajectory)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.config, out_dir, args.plot)
        return cmd_compare(cfg, args.config, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (IntegrationError, SweepError) as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
