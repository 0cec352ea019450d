"""Run configuration: flat ``key = value`` files with ``#`` comments and one
optional ``[sweep]`` section.

Frequencies are ordinary Hz and durations seconds; the single 2*pi conversion
to angular units happens here.  Parsing is strict: unknown keys, duplicate
keys, and missing required keys are errors that name the key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .core_model import LambdaParams, TwoLevelParams, angular, reference_gap
from .propagator import MIN_STEPS, Method
from .schedules import SWEEP_KINDS, ScheduleKind
from .sweeps import AmplitudeMode, Axis, AxisWindow, RunSpec, Scenario, SweepSpec


class ConfigError(ValueError):
    pass


_PROTOCOL_ALIASES = {
    "pi": ScheduleKind.FLAT_PI,
    "flat_pi": ScheduleKind.FLAT_PI,
    "siquad": ScheduleKind.SIQUAD,
    "faquad": ScheduleKind.FAQUAD,
    "linear": ScheduleKind.LINEAR,
    "stirap": ScheduleKind.STIRAP_GAUSSIAN,
    "stirap_gaussian": ScheduleKind.STIRAP_GAUSSIAN,
}

_DURATION_KEYS = {f"T_{kind.value}_s": kind for kind in ScheduleKind}

_MAIN_KEYS = {
    "scenario",
    "protocol",
    "omega_m_hz",
    "omega0_hz",
    "delta_big_hz",
    "gamma_hz",
    "delta_m_hz",
    "T_s",
    "steps",
    "method",
    "tau_sep_s",
    "sigma_s",
    "amplitude_mode",
    "compare_points",
    "compare_amp_lo",
    "compare_amp_hi",
    "compare_det_hz",
    "out_dir",
} | set(_DURATION_KEYS)

_SWEEP_KEYS = {"axis", "lo", "hi", "points"}


def parse_config_text(text: str) -> tuple[dict, dict | None]:
    """Split config text into the main key/value map and the optional [sweep]
    section; rejects duplicate keys, unknown sections and malformed lines."""
    main: dict[str, str] = {}
    sweep: dict[str, str] | None = None
    current = main
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section != "sweep":
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            if sweep is not None:
                raise ConfigError(f"line {lineno}: duplicate [sweep] section")
            sweep = {}
            current = sweep
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key: {key}")
        current[key] = value
    return main, sweep


def _as_float(section: dict, key: str) -> float:
    raw = _require(section, key)
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key}: not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key {key}: not a finite number: {raw!r}")
    return value


def _as_int(section: dict, key: str) -> int:
    raw = _require(section, key)
    try:
        return int(raw)
    except ValueError:
        pass
    value = _as_float(section, key)
    if value != int(value):
        raise ConfigError(f"key {key}: not an integer: {raw!r}")
    return int(value)


def _as_enum(section: dict, key: str, kind: type):
    raw = _require(section, key)
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key}: unknown value {raw!r}") from exc


@dataclass(frozen=True)
class RunConfig:
    """A validated, unit-converted config (angular rad/s internally): the run,
    its optional [sweep], and the error windows of ``quadsim compare`` (the
    amplitude window, then the detuning window)."""

    run: RunSpec
    sweep: SweepSpec | None
    compare: tuple[AxisWindow, ...]
    out_dir: str | None
    raw: dict = field(repr=False, default_factory=dict)


def _require(section: dict, key: str) -> str:
    if key not in section:
        raise ConfigError(f"missing required key: {key}")
    return section[key]


def load_config_text(text: str) -> RunConfig:
    main, sweep_raw = parse_config_text(text)

    unknown = set(main) - _MAIN_KEYS
    if unknown:
        raise ConfigError(f"unknown key: {sorted(unknown)[0]}")
    if sweep_raw is not None:
        unknown = set(sweep_raw) - _SWEEP_KEYS
        if unknown:
            raise ConfigError(f"unknown key in [sweep]: {sorted(unknown)[0]}")

    scenario = _as_enum(main, "scenario", Scenario)

    protocols: list[ScheduleKind] = []
    for name in _require(main, "protocol").split(","):
        name = name.strip()
        if name not in _PROTOCOL_ALIASES:
            raise ConfigError(f"key protocol: unknown protocol {name!r}")
        kind = _PROTOCOL_ALIASES[name]
        if kind in protocols:
            raise ConfigError(f"key protocol: protocol {name!r} listed twice")
        protocols.append(kind)
    if scenario is Scenario.TWO_LEVEL and ScheduleKind.STIRAP_GAUSSIAN in protocols:
        raise ConfigError("key protocol: stirap requires scenario = three_level")

    # params field -> the config key it is read from
    if scenario is Scenario.TWO_LEVEL:
        param_type, param_keys = TwoLevelParams, {"omega_m": "omega_m_hz"}
    else:
        param_type, param_keys = LambdaParams, {
            "omega_p0": "omega0_hz",
            "omega_s0": "omega0_hz",
            "delta_one_photon": "delta_big_hz",
        }
        if "gamma_hz" in main:
            param_keys["gamma"] = "gamma_hz"
    values = {name: angular(_as_float(main, key)) for name, key in param_keys.items()}
    try:
        params = param_type(**values)
    except ValueError as exc:
        # the params' messages start with the offending field's name
        raise ConfigError(f"key {param_keys[str(exc).split()[0]]}: {exc}") from exc

    needs_delta_m = any(p in SWEEP_KINDS for p in protocols)
    if needs_delta_m and "delta_m_hz" not in main:
        raise ConfigError("missing required key: delta_m_hz")
    delta_m = angular(_as_float(main, "delta_m_hz")) if "delta_m_hz" in main else 0.0
    if needs_delta_m and delta_m <= 0:
        raise ConfigError("key delta_m_hz: must be > 0 for a sweep protocol")

    axis = _as_enum(sweep_raw, "axis", Axis) if sweep_raw is not None else None

    per_protocol = {key: kind for key, kind in _DURATION_KEYS.items() if key in main}
    if "T_s" in main and per_protocol:
        raise ConfigError(
            f"conflicting duration keys: T_s and {sorted(per_protocol)[0]} both given"
        )
    durations: dict[ScheduleKind, float] = {}
    if "T_s" in main:
        t_global = _as_float(main, "T_s")
        durations = {p: t_global for p in protocols}
    else:
        for key, kind in per_protocol.items():
            if kind not in protocols:
                raise ConfigError(f"key {key}: protocol {kind.value} not listed in 'protocol'")
            durations[kind] = _as_float(main, key)
    for p in protocols:
        if p not in durations:
            if axis is not Axis.DURATION:
                raise ConfigError(f"missing required key: T_{p.value}_s (or global T_s)")
        elif durations[p] <= 0:
            raise ConfigError(f"key T_{p.value}_s: duration must be > 0")

    steps = _as_int(main, "steps") if "steps" in main else None
    if steps is not None and steps < MIN_STEPS:
        raise ConfigError(f"key steps: must be >= {MIN_STEPS}, got {steps}")
    method = _as_enum(main, "method", Method) if "method" in main else Method.PIECEWISE_EXPM
    amplitude_mode = (
        _as_enum(main, "amplitude_mode", AmplitudeMode)
        if "amplitude_mode" in main
        else AmplitudeMode.MULTIPLICATIVE
    )

    tau_sep = _as_float(main, "tau_sep_s") if "tau_sep_s" in main else None
    sigma = _as_float(main, "sigma_s") if "sigma_s" in main else None
    if sigma is not None and sigma <= 0:
        raise ConfigError("key sigma_s: must be > 0")
    run = RunSpec(
        params=params,
        protocols=tuple(protocols),
        durations=durations,
        delta_m=delta_m,
        steps=steps,
        method=method,
        amplitude_mode=amplitude_mode,
        tau_sep=tau_sep,
        sigma=sigma,
    )

    sweep_spec = None
    if sweep_raw is not None:
        lo, hi = _as_float(sweep_raw, "lo"), _as_float(sweep_raw, "hi")
        points = _as_int(sweep_raw, "points")
        if axis is Axis.DETUNING_OFFSET or (
            axis is Axis.AMPLITUDE_SCALE and amplitude_mode is AmplitudeMode.ADDITIVE
        ):
            lo, hi = angular(lo), angular(hi)
        try:
            sweep_spec = SweepSpec(run, AxisWindow(axis, lo, hi, points))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    # only the STIRAP pulse pair uses tau_sep, so only its durations bound
    # it: the fixed one and, on a duration sweep, the shortest nonzero one
    stirap_t = [durations.get(ScheduleKind.STIRAP_GAUSSIAN, math.inf)]
    if axis is Axis.DURATION and ScheduleKind.STIRAP_GAUSSIAN in protocols:
        grid = sweep_spec.window.grid()
        stirap_t.append(grid[grid > 0][0])
    if tau_sep is not None and not 0 < tau_sep < min(stirap_t):
        raise ConfigError("key tau_sep_s: must be > 0 and below every stirap duration")

    compare_points = _as_int(main, "compare_points") if "compare_points" in main else 41
    if amplitude_mode is AmplitudeMode.ADDITIVE:
        # offsets in Hz like the [sweep] lo/hi; by default +-0.2 of the drive
        drive = params.omega_m if scenario is Scenario.TWO_LEVEL else params.omega_p0
        amp_unit, amp_default = angular, (-0.2 * drive, 0.2 * drive)
    else:
        amp_unit, amp_default = float, (0.8, 1.2)
    amp_lo, amp_hi = (
        amp_unit(_as_float(main, key)) if key in main else default
        for key, default in zip(("compare_amp_lo", "compare_amp_hi"), amp_default)
    )
    det = reference_gap(params)
    if "compare_det_hz" in main:
        det = angular(_as_float(main, "compare_det_hz"))
    compare = (
        AxisWindow(Axis.AMPLITUDE_SCALE, amp_lo, amp_hi, compare_points),
        AxisWindow(Axis.DETUNING_OFFSET, -det, det, compare_points),
    )
    window_keys = ("compare_amp_lo, compare_amp_hi, compare_points", "compare_det_hz, compare_points")
    for keys, window in zip(window_keys, compare):
        try:
            window.check(amplitude_mode)
        except ValueError as exc:
            raise ConfigError(f"keys {keys}: {exc}") from exc

    return RunConfig(
        run=run,
        sweep=sweep_spec,
        out_dir=main.get("out_dir"),
        compare=compare,
        raw={"main": dict(main), "sweep": dict(sweep_raw) if sweep_raw else None},
    )


def preset_names() -> list[str]:
    root = resources.files("quadsim").joinpath("presets")
    return sorted(p.name[: -len(".cfg")] for p in root.iterdir() if p.name.endswith(".cfg"))


def load_config(path_or_preset: str | Path) -> RunConfig:
    """Load a config from a file path, or by bundled preset name."""
    path = Path(path_or_preset)
    if not path.exists() and path.name == str(path_or_preset):
        candidate = resources.files("quadsim").joinpath("presets", f"{path_or_preset}.cfg")
        if candidate.is_file():
            return load_config_text(candidate.read_text(encoding="utf-8"))
        raise ConfigError(
            f"config not found: {path_or_preset!r} (no such file or bundled preset; "
            f"presets: {', '.join(preset_names())})"
        )
    if not path.is_file():
        raise ConfigError(f"config not found: {path_or_preset!r}")
    return load_config_text(path.read_text(encoding="utf-8"))
