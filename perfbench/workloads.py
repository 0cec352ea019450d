"""Seeded workloads: quadsim configs derived from the bundled presets.

Each workload does a fixed amount of propagation whatever the seed; the seed
only jitters operation times and the error-window half-widths by up to 1 %.
Windows stay symmetric with an odd point count, so the nominal point is on
the grid.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

JITTER = 0.01

# Config values shared with the presets (ordinary Hz and seconds).
TWO_LEVEL_OMEGA_M_HZ = 150e3
DELTA_M_HZ = 10e6
TWO_LEVEL_T = {
    "flat_pi": 3.3333333333333333e-06,
    "faquad": 2.11e-05,
    "siquad": 1.9433333333333333e-05,
}
LAMBDA_OMEGA0_HZ = 5e6
LAMBDA_DELTA_BIG_HZ = 10e9
LAMBDA_GAMMA_HZ = 5.6e6
LAMBDA_T = 2.85e-3


def lambda_gap_hz(omega0_hz: float = LAMBDA_OMEGA0_HZ, delta_hz: float = LAMBDA_DELTA_BIG_HZ) -> float:
    """Reference gap sqrt(Delta^2 + Omega_0^2) - Delta, in Hz."""
    return omega0_hz * omega0_hz / (math.hypot(delta_hz, omega0_hz) + delta_hz)


@dataclass(frozen=True)
class Sizes:
    two_level_steps: int = 50_000
    two_level_points: int = 3
    compare_steps: int = 73_728  # one full 65 536-step chunk plus 8 192
    compare_points: int = 3
    trajectory_steps: int = 131_072  # two full chunks


FULL = Sizes()
# Small enough for the benchmark's own tests to run all three in seconds.
TINY = Sizes(two_level_steps=200, two_level_points=3, compare_steps=300,
             compare_points=3, trajectory_steps=400)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # quadsim subcommand
    flags: tuple[str, ...]
    config_text: str
    params: dict  # the values written to the config, for the oracle
    steps: int
    evolves: int  # evolve calls one CLI call makes
    ops: int  # operations one CLI call counts toward attempted

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        return [self.command, "--config", config_path, "--out", out_dir, *self.flags]


def _jitter(rng: random.Random) -> float:
    return 1.0 + rng.uniform(-JITTER, JITTER)


def _render(main: dict, sweep: dict | None = None) -> str:
    lines = [f"{k} = {v}" for k, v in main.items()]
    if sweep:
        lines.append("")
        lines.append("[sweep]")
        lines += [f"{k} = {v}" for k, v in sweep.items()]
    return "\n".join(lines) + "\n"


def two_level_sweep(rng: random.Random, sizes: Sizes) -> Workload:
    durations = {p: t * _jitter(rng) for p, t in TWO_LEVEL_T.items()}
    half = 0.1 * _jitter(rng)
    main = {
        "scenario": "two_level",
        "protocol": ", ".join(durations),
        "omega_m_hz": repr(TWO_LEVEL_OMEGA_M_HZ),
        "delta_m_hz": repr(DELTA_M_HZ),
        **{f"T_{p}_s": repr(t) for p, t in durations.items()},
        "steps": str(sizes.two_level_steps),
    }
    sweep = {"axis": "amplitude_scale", "lo": repr(1.0 - half), "hi": repr(1.0 + half),
             "points": str(sizes.two_level_points)}
    rows = len(durations) * sizes.two_level_points
    return Workload(
        name="two_level_sweep",
        command="sweep",
        flags=("--plot",),
        config_text=_render(main, sweep),
        params={"scenario": "two_level", "durations": durations, "lo": 1.0 - half,
                "hi": 1.0 + half, "points": sizes.two_level_points},
        steps=sizes.two_level_steps,
        evolves=rows,
        ops=rows,
    )


def lambda_compare(rng: random.Random, sizes: Sizes) -> Workload:
    duration = LAMBDA_T * _jitter(rng)
    amp_half = 0.2 * _jitter(rng)
    det_hz = lambda_gap_hz() * _jitter(rng)
    main = {
        "scenario": "three_level",
        "protocol": "siquad, stirap",
        "omega0_hz": repr(LAMBDA_OMEGA0_HZ),
        "delta_big_hz": repr(LAMBDA_DELTA_BIG_HZ),
        "gamma_hz": repr(LAMBDA_GAMMA_HZ),
        "delta_m_hz": repr(DELTA_M_HZ),
        "T_s": repr(duration),
        "steps": str(sizes.compare_steps),
        "compare_points": str(sizes.compare_points),
        "compare_amp_lo": repr(1.0 - amp_half),
        "compare_amp_hi": repr(1.0 + amp_half),
        "compare_det_hz": repr(det_hz),
    }
    protocols, axes = 2, 2
    return Workload(
        name="lambda_compare",
        command="compare",
        flags=(),
        config_text=_render(main),
        params={"scenario": "three_level", "gamma_hz": LAMBDA_GAMMA_HZ,
                "durations": {"siquad": duration, "stirap_gaussian": duration}},
        steps=sizes.compare_steps,
        # one nominal run per protocol, then every protocol on every axis point
        evolves=protocols * (1 + axes * sizes.compare_points),
        ops=protocols * axes,  # rows of compare_worst.csv
    )


def lambda_trajectory(rng: random.Random, sizes: Sizes) -> Workload:
    duration = LAMBDA_T * _jitter(rng)
    main = {
        "scenario": "three_level",
        "protocol": "siquad",
        "omega0_hz": repr(LAMBDA_OMEGA0_HZ),
        "delta_big_hz": repr(LAMBDA_DELTA_BIG_HZ),
        "gamma_hz": "0",
        "delta_m_hz": repr(DELTA_M_HZ),
        "T_s": repr(duration),
        "steps": str(sizes.trajectory_steps),
    }
    return Workload(
        name="lambda_trajectory",
        command="simulate",
        flags=("--trajectory",),
        config_text=_render(main),
        params={"scenario": "three_level", "gamma_hz": 0.0, "durations": {"siquad": duration}},
        steps=sizes.trajectory_steps,
        evolves=1,
        ops=1,
    )


BUILDERS = {
    "two_level_sweep": two_level_sweep,
    "lambda_compare": lambda_compare,
    "lambda_trajectory": lambda_trajectory,
}


def build(name: str, seed: int, sizes: Sizes = FULL) -> Workload:
    """The workload `name` for `seed`; each workload draws from its own stream."""
    if name not in BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(BUILDERS)}")
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, sizes)
