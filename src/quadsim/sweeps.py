"""Protocol comparison sweeps over operation time, coupling-amplitude error,
and detuning error.

Perturbation model: an amplitude-scale point multiplies every Rabi coupling
fed to the Hamiltonian while the detuning schedule stays fixed (the schedule
was designed for the nominal gap); a detuning-offset point adds a constant to
delta(t), leaving the one-photon detuning untouched; a duration point rebuilds
the schedule at that total time.

Every axis point is one call of run_protocol, and its key is that call's
exact arguments: protocol, duration, amplitude scale, amplitude offset and
detuning offset.  A sweep, or a comparison across all its windows, runs each
distinct key once from one task list, so the nominal point that the amplitude
and detuning windows share is run once; evolve is deterministic, so every row
that shares a key gets the bit-identical result.  Set QUAD_WORKERS > 1 to run
the task list in a process pool of min(QUAD_WORKERS, usable CPUs, number of
tasks) workers, where the usable CPUs are those of the process's affinity
mask (os.cpu_count() on a platform without one); a value that is not an
integer >= 1 is rejected.  Results are assembled in axis order either way, so
output is identical for any worker count.  A result's metadata["wall_time_s"]
is the time of the whole task list it came from; a comparison's windows share
theirs.
"""

from __future__ import annotations

import enum
import os
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .analysis import TransferMetrics, transfer_metrics
from .core_model import (
    LambdaModel,
    LambdaParams,
    QuantumState,
    TwoLevelModel,
    TwoLevelParams,
    reference_gap,
)
from .propagator import (
    EvolveRequest,
    EvolveResult,
    IntegrationError,
    Method,
    evolve,
    resolve_steps,
)
from .schedules import SWEEP_KINDS, PulseSchedule, ScheduleKind

TARGET_INDEX = 1  # transfer target is bare state |2>


class Scenario(enum.Enum):
    TWO_LEVEL = "two_level"
    THREE_LEVEL = "three_level"


class Axis(enum.Enum):
    DURATION = "duration"
    AMPLITUDE_SCALE = "amplitude_scale"
    DETUNING_OFFSET = "detuning_offset"


class AmplitudeMode(enum.Enum):
    MULTIPLICATIVE = "multiplicative"
    ADDITIVE = "additive"


class SweepError(RuntimeError):
    """A sweep task failed; the message identifies the offending point."""


def make_model(params: TwoLevelParams | LambdaParams) -> TwoLevelModel | LambdaModel:
    """The model the params describe: two-level or Lambda."""
    return TwoLevelModel(params) if isinstance(params, TwoLevelParams) else LambdaModel(params)


def make_schedule(
    params: TwoLevelParams | LambdaParams,
    protocol: ScheduleKind,
    duration: float,
    delta_m: float = 0.0,
    tau_sep: float | None = None,
    sigma: float | None = None,
) -> PulseSchedule:
    """Build a protocol's schedule for the system the params describe.

    Sweep schedules reference the system's minimum gap, :func:`reference_gap`.
    """
    if isinstance(params, TwoLevelParams):
        if protocol is ScheduleKind.STIRAP_GAUSSIAN:
            raise ValueError("STIRAP requires the three-level scenario")
        drive, drive_s = params.omega_m, None
    else:
        drive, drive_s = params.omega_p0, params.omega_s0
    sweep = protocol in SWEEP_KINDS
    return PulseSchedule(
        kind=protocol,
        duration=duration,
        delta_m=delta_m if sweep else 0.0,
        omega_ref=reference_gap(params) if sweep else 0.0,
        drive_amplitude=drive,
        drive_amplitude_s=drive_s,
        tau_sep=tau_sep,
        sigma=sigma,
    )


@dataclass(frozen=True)
class RunSpec:
    """One run description, shared by simulate, sweep and compare.

    durations maps each protocol to its fixed operation time (a DURATION
    sweep takes it from the axis instead).  delta_m and additive amplitude
    offsets are angular (rad/s); tau_sep and sigma apply to STIRAP only.
    """

    params: TwoLevelParams | LambdaParams
    protocols: tuple[ScheduleKind, ...] = ()
    durations: Mapping[ScheduleKind, float] = field(default_factory=dict)
    delta_m: float = 0.0
    steps: int | None = None
    method: Method = Method.PIECEWISE_EXPM
    amplitude_mode: AmplitudeMode = AmplitudeMode.MULTIPLICATIVE
    tau_sep: float | None = None
    sigma: float | None = None

    @property
    def scenario(self) -> Scenario:
        two_level = isinstance(self.params, TwoLevelParams)
        return Scenario.TWO_LEVEL if two_level else Scenario.THREE_LEVEL

    @property
    def resolved_steps(self) -> int:
        return resolve_steps(self.steps, make_model(self.params).dim)


def run_protocol(
    run: RunSpec,
    protocol: ScheduleKind,
    duration: float | None = None,
    amplitude_scale: float = 1.0,
    amplitude_offset: float = 0.0,
    detuning_offset: float = 0.0,
    store_trajectory: bool = False,
) -> EvolveResult:
    """Evolve |1> under one protocol for `duration` (by default the run's
    duration for it) and return the result."""
    if duration is None:
        duration = run.durations[protocol]
    model = make_model(run.params)
    schedule = make_schedule(run.params, protocol, duration, run.delta_m, run.tau_sep, run.sigma)
    req = EvolveRequest(
        model=model,
        schedule=schedule,
        initial=QuantumState.basis(model.dim, 0),
        steps=run.steps,
        method=run.method,
        store_trajectory=store_trajectory,
        amplitude_scale=amplitude_scale,
        amplitude_offset=amplitude_offset,
        detuning_offset=detuning_offset,
    )
    return evolve(req)


@dataclass(frozen=True)
class AxisWindow:
    """An error axis sampled at `points` evenly spaced values from lo to hi."""

    axis: Axis
    lo: float
    hi: float
    points: int = 41

    def check(self, amplitude_mode: AmplitudeMode) -> None:
        """Raise ValueError unless lo < hi, points >= 2, a duration window
        starts at lo >= 0 and a multiplicative amplitude window lies in (0, 2]."""
        if not self.lo < self.hi:
            raise ValueError("sweep range requires lo < hi")
        if self.points < 2:
            raise ValueError("points must be >= 2")
        if self.axis is Axis.DURATION and self.lo < 0:
            raise ValueError("duration range requires lo >= 0")
        if self.axis is Axis.AMPLITUDE_SCALE and amplitude_mode is AmplitudeMode.MULTIPLICATIVE:
            if self.lo <= 0 or self.hi > 2:
                raise ValueError("multiplicative amplitude range must lie in (0, 2]")

    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: the run's protocols x the window's axis grid.  Detuning
    offsets and additive amplitude offsets are angular (rad/s)."""

    run: RunSpec
    window: AxisWindow

    def __post_init__(self) -> None:
        if not self.run.protocols:
            raise ValueError("at least one protocol required")
        self.window.check(self.run.amplitude_mode)
        if self.window.axis is not Axis.DURATION:
            for protocol in self.run.protocols:
                duration = self.run.durations.get(protocol)
                if duration is None or duration <= 0:
                    raise ValueError(f"protocol {protocol.value} requires a positive duration")


@dataclass(frozen=True)
class SweepRow:
    protocol: str
    scenario: str
    axis: str
    axis_value: float
    duration: float
    fidelity: float
    error: float
    final_norm_sq: float
    method: str
    steps: int


@dataclass(frozen=True)
class SweepResult:
    rows: list[SweepRow]
    metadata: dict

    def errors_for(self, protocol: ScheduleKind) -> np.ndarray:
        return np.array([r.error for r in self.rows if r.protocol == protocol.value])

    def fidelities_for(self, protocol: ScheduleKind) -> np.ndarray:
        return np.array([r.fidelity for r in self.rows if r.protocol == protocol.value])

    def axis_values(self) -> np.ndarray:
        first = self.rows[0].protocol
        return np.array([r.axis_value for r in self.rows if r.protocol == first])


# the exact run_protocol arguments after the run spec: protocol, duration,
# amplitude_scale, amplitude_offset, detuning_offset
RunKey = tuple[ScheduleKind, float, float, float, float]


def _run_key(
    run: RunSpec, protocol: ScheduleKind, axis: Axis | None = None, value: float = 0.0
) -> RunKey:
    """The key of one axis point, or of the unperturbed run when axis is None.
    Equal keys give bit-identical runs."""
    multiplicative = run.amplitude_mode is AmplitudeMode.MULTIPLICATIVE
    duration = value if axis is Axis.DURATION else float(run.durations[protocol])
    scale = value if axis is Axis.AMPLITUDE_SCALE and multiplicative else 1.0
    offset = value if axis is Axis.AMPLITUDE_SCALE and not multiplicative else 0.0
    detuning = value if axis is Axis.DETUNING_OFFSET else 0.0
    return (protocol, duration, scale, offset, detuning)


def _run_task(args) -> TransferMetrics:
    run, key, point = args
    try:
        result = run_protocol(run, *key)
    except (IntegrationError, ValueError) as exc:
        raise SweepError(f"sweep failed at protocol={key[0].value} {point}: {exc}") from exc
    return transfer_metrics(result.final, TARGET_INDEX)


def worker_count() -> int:
    """The pool size QUAD_WORKERS asks for (1 when unset); ValueError unless
    it is an integer >= 1."""
    raw = os.environ.get("QUAD_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"QUAD_WORKERS must be an integer >= 1, got {raw!r}")
    return workers


def _usable_cpus() -> int:
    # an affinity mask (taskset, container cpusets) can leave fewer CPUs than
    # os.cpu_count() counts
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_tasks(fn, tasks: list) -> list:
    """fn over tasks, in order; in a process pool of min(QUAD_WORKERS, usable
    CPUs, tasks) workers when that is more than one."""
    workers = min(worker_count(), _usable_cpus(), len(tasks))
    if workers > 1:
        # imported here: concurrent.futures.process loads multiprocessing,
        # socket and logging, about 30 ms of every single-worker run's start
        from concurrent.futures import ProcessPoolExecutor

        chunksize = max(1, len(tasks) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks, chunksize=chunksize))
    return [fn(task) for task in tasks]


def _row(
    spec: SweepSpec, protocol: ScheduleKind, value: float, metrics: TransferMetrics | None
) -> SweepRow:
    run, axis = spec.run, spec.window.axis
    point = dict(
        protocol=protocol.value,
        scenario=run.scenario.value,
        axis=axis.value,
        axis_value=value,
        method=run.method.value,
    )
    if metrics is None:
        # zero-duration point on a DURATION scan: the exact limit is the
        # identity map, so the state stays |1> and no transfer occurs
        return SweepRow(
            **point, duration=0.0, fidelity=0.0, error=1.0, final_norm_sq=1.0, steps=0
        )
    return SweepRow(
        **point,
        duration=value if axis is Axis.DURATION else float(run.durations[protocol]),
        fidelity=metrics.fidelity,
        error=metrics.error,
        final_norm_sq=metrics.final_norm_sq,
        steps=run.resolved_steps,
    )


def _run_windows(
    specs: Sequence[SweepSpec], extra: Sequence[tuple[RunSpec, RunKey]] = ()
) -> tuple[list[SweepResult], dict[RunKey, TransferMetrics]]:
    """Run every distinct key of the specs' axis points, then of `extra`, once,
    in one task list.  Fan the results back into one SweepResult per spec, rows
    protocol-major in axis order; each one's wall_time_s is the time of the
    whole task list."""
    started = time.monotonic()
    grids = []
    tasks: dict[RunKey, tuple] = {}
    for spec in specs:
        axis = spec.window.axis
        grid = []
        for protocol in spec.run.protocols:
            for value in spec.window.grid():
                value = float(value)
                key = None
                if axis is not Axis.DURATION or value > 0.0:
                    key = _run_key(spec.run, protocol, axis, value)
                    tasks.setdefault(key, (spec.run, key, f"{axis.value}={value}"))
                grid.append((protocol, value, key))
        grids.append(grid)
    for run, key in extra:
        tasks.setdefault(key, (run, key, "nominal point"))
    metrics = dict(zip(tasks, _map_tasks(_run_task, list(tasks.values()))))
    wall_time_s = time.monotonic() - started
    results = [
        SweepResult(
            rows=[_row(spec, p, value, metrics.get(key)) for p, value, key in grid],
            metadata={**spec_metadata(spec), "wall_time_s": wall_time_s},
        )
        for spec, grid in zip(specs, grids)
    ]
    return results, metrics


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run the full protocols x axis grid; rows are ordered protocol-major."""
    (result,), _ = _run_windows([spec])
    return result


def spec_metadata(spec: SweepSpec) -> dict:
    run = spec.run
    return {
        **asdict(spec.window),
        "axis": spec.window.axis.value,
        "scenario": run.scenario.value,
        "protocols": [p.value for p in run.protocols],
        "params": asdict(run.params),
        "delta_m": run.delta_m,
        "durations": {p.value: t for p, t in run.durations.items()},
        "steps": run.resolved_steps,
        "method": run.method.value,
        "amplitude_mode": run.amplitude_mode.value,
    }


SWEEP_CSV_COLUMNS = (
    "protocol,scenario,axis,axis_value,T_s,fidelity,error,final_norm_sq,method,steps"
)


def write_sweep_csv(result: SweepResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SWEEP_CSV_COLUMNS + "\n")
        for r in result.rows:
            fh.write(
                f"{r.protocol},{r.scenario},{r.axis},"
                f"{r.axis_value:.15e},{r.duration:.15e},{r.fidelity:.15e},"
                f"{r.error:.15e},{r.final_norm_sq:.15e},{r.method},{r.steps}\n"
            )


@dataclass(frozen=True)
class ProtocolSummary:
    axis: str
    protocol: str
    duration: float
    on_axis_fidelity: float
    on_axis_error: float
    worst_error: float


@dataclass(frozen=True)
class DominanceRow:
    """protocol_a dominates protocol_b on an axis when its error is no larger
    at >= 90% of the sampled points."""

    axis: str
    protocol_a: str
    protocol_b: str
    fraction_a_le_b: float
    dominates: bool


@dataclass(frozen=True)
class ComparisonResult:
    summaries: list[ProtocolSummary]
    dominance: list[DominanceRow]
    sweeps: dict[Axis, SweepResult]

    def to_text(self) -> str:
        lines = ["protocol worst-case error per axis window:"]
        lines.append(f"  {'axis':<18}{'protocol':<18}{'T_s':>14}{'on_axis_err':>14}{'worst_err':>14}")
        for s in self.summaries:
            lines.append(
                f"  {s.axis:<18}{s.protocol:<18}{s.duration:>14.6e}"
                f"{s.on_axis_error:>14.6e}{s.worst_error:>14.6e}"
            )
        if self.dominance:
            lines.append("pairwise dominance (error_a <= error_b at >= 90% of points):")
            lines.append(f"  {'axis':<18}{'a':<18}{'b':<18}{'frac':>8}  dominates")
            for d in self.dominance:
                lines.append(
                    f"  {d.axis:<18}{d.protocol_a:<18}{d.protocol_b:<18}"
                    f"{d.fraction_a_le_b:>8.3f}  {'yes' if d.dominates else 'no'}"
                )
        return "\n".join(lines)


DOMINANCE_THRESHOLD = 0.9


def compare_protocols(run: RunSpec, windows: Sequence[AxisWindow]) -> ComparisonResult:
    """Cross the run's protocols, in the order of run.durations, with error
    windows; summarize worst-case errors and pairwise dominance.

    All windows share one task list keyed by the exact run_protocol
    arguments, so a run that several windows sample (the nominal point: scale
    1 or offset 0) is made once.  A protocol's on-axis fidelity is the result
    of its unperturbed key, which joins the list only when no window samples
    it.  Each window's metadata["wall_time_s"] is the time of the whole list."""
    protocols = tuple(run.durations)
    run = replace(run, protocols=protocols)
    specs = [SweepSpec(run, window) for window in windows]
    nominal = {protocol: _run_key(run, protocol) for protocol in protocols}
    results, metrics = _run_windows(specs, extra=[(run, key) for key in nominal.values()])
    on_axis = {protocol: metrics[key].fidelity for protocol, key in nominal.items()}
    summaries: list[ProtocolSummary] = []
    dominance: list[DominanceRow] = []

    for window, result in zip(windows, results):
        errors = {p: result.errors_for(p) for p in protocols}
        for protocol in protocols:
            summaries.append(
                ProtocolSummary(
                    axis=window.axis.value,
                    protocol=protocol.value,
                    duration=run.durations[protocol],
                    on_axis_fidelity=on_axis[protocol],
                    on_axis_error=1.0 - on_axis[protocol],
                    worst_error=float(np.max(errors[protocol])),
                )
            )
        for pa in protocols:
            for pb in protocols:
                if pa is pb:
                    continue
                frac = float(np.mean(errors[pa] <= errors[pb]))
                dominance.append(
                    DominanceRow(
                        axis=window.axis.value,
                        protocol_a=pa.value,
                        protocol_b=pb.value,
                        fraction_a_le_b=frac,
                        dominates=frac >= DOMINANCE_THRESHOLD,
                    )
                )
    sweeps = {window.axis: result for window, result in zip(windows, results)}
    return ComparisonResult(summaries=summaries, dominance=dominance, sweeps=sweeps)


def write_comparison_worst_csv(result: ComparisonResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("axis,protocol,T_s,on_axis_fidelity,on_axis_error,worst_error\n")
        for s in result.summaries:
            fh.write(
                f"{s.axis},{s.protocol},{s.duration:.15e},"
                f"{s.on_axis_fidelity:.15e},{s.on_axis_error:.15e},{s.worst_error:.15e}\n"
            )


def write_comparison_dominance_csv(result: ComparisonResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("axis,protocol_a,protocol_b,fraction_a_le_b,dominates\n")
        for d in result.dominance:
            fh.write(
                f"{d.axis},{d.protocol_a},{d.protocol_b},"
                f"{d.fraction_a_le_b:.15e},{int(d.dominates)}\n"
            )
