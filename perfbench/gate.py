"""Correctness gate for one CLI call's outputs.

`check_outputs` counts the operations of one call that failed: the call
exited non-zero, an expected row is missing, or a row breaks an invariant
(norm growth, a fidelity outside [0, 1], a trajectory whose last row
disagrees with metrics.csv).

`oracle_check` recomputes one seeded point independently: the midpoint
Hamiltonians are built here from the schedules' closed forms, exponentiated
with batched scipy.linalg.expm and applied in order.  Any step exponential
at ||H dt|| carries a relative rounding error near ||H dt|| * eps, so two
correct propagators can drift apart by up to about steps * ||H dt|| * eps.
The tolerance is the larger of 1e-9 and four times that floor.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads as w

NORM_TOL = 1e-9  # final_norm_sq <= 1 + NORM_TOL, as evolve guarantees
FIDELITY_TOL = 1e-9
ROW_MATCH_TOL = 1e-12  # trajectory vs chain path differ by ~6e-14
TWO_PI = 2.0 * math.pi
CHUNK = 65536


@dataclass
class Check:
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def output_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        h.update(path.name.encode())
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).iterdir())


def _finite_unit(x: float) -> bool:
    return math.isfinite(x) and -1e-12 <= x <= 1.0 + 1e-12


def check_outputs(wl, out_dir: Path, rc: int | None) -> Check:
    """Failed operations of one call of workload `wl` whose outputs are in out_dir."""
    check = Check()
    if rc != 0:
        check.fail(wl.ops, f"call exited with {rc}")
        return check
    stem = Path(out_dir) / wl.name
    try:
        {"sweep": _check_sweep, "compare": _check_compare, "simulate": _check_simulate}[
            wl.command
        ](wl, stem, check)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        check.fail(wl.ops - check.failed, f"unreadable output: {exc!r}")
    return check


def _check_sweep(wl, stem: Path, check: Check) -> None:
    for suffix in (".meta.json", ".sweep.svg"):
        if not Path(f"{stem}{suffix}").is_file():
            check.fail(wl.ops, f"missing {stem.name}{suffix}")
            return
    rows = _rows(Path(f"{stem}.sweep.csv"))
    p = wl.params
    for protocol in p["durations"]:
        for value in np.linspace(p["lo"], p["hi"], p["points"]):
            match = [
                r for r in rows
                if r["protocol"] == protocol and abs(float(r["axis_value"]) - value) <= 1e-12
            ]
            if not match:
                check.fail(1, f"missing row {protocol} amplitude_scale={value!r}")
                continue
            r = match[0]
            fidelity, norm = float(r["fidelity"]), float(r["final_norm_sq"])
            if not (_finite_unit(fidelity) and norm <= 1.0 + NORM_TOL and int(r["steps"]) == wl.steps):
                check.fail(1, f"bad row {protocol} {value!r}: F={fidelity} norm={norm} steps={r['steps']}")


def _check_compare(wl, stem: Path, check: Check) -> None:
    dominance = _rows(Path(f"{stem}.compare_dominance.csv"))
    protocols = list(wl.params["durations"])
    axes = ("amplitude_scale", "detuning_offset")
    if len(dominance) != len(axes) * len(protocols) * (len(protocols) - 1) or not all(
        _finite_unit(float(d["fraction_a_le_b"])) for d in dominance
    ):
        check.fail(wl.ops, "compare_dominance.csv rows missing or out of range")
        return
    rows = _rows(Path(f"{stem}.compare_worst.csv"))
    for axis in axes:
        for protocol in protocols:
            match = [r for r in rows if r["axis"] == axis and r["protocol"] == protocol]
            if not match:
                check.fail(1, f"missing row {axis} {protocol}")
                continue
            r = match[0]
            on_f, on_e, worst = (float(r[k]) for k in ("on_axis_fidelity", "on_axis_error", "worst_error"))
            # the window is symmetric with an odd count, so it samples the nominal point
            if not (_finite_unit(on_f) and _finite_unit(worst)
                    and abs(on_f + on_e - 1.0) <= ROW_MATCH_TOL
                    and worst >= on_e - FIDELITY_TOL):
                check.fail(1, f"bad row {axis} {protocol}: on_axis_F={on_f} worst={worst}")


def _last_line(path: Path) -> tuple[int, str]:
    """Number of lines and the last one, without reading the file into memory."""
    count, tail = 0, b""
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            count += block.count(b"\n")
            tail = (tail + block)[-4096:]
    return count, tail.rstrip(b"\n").rsplit(b"\n", 1)[-1].decode()


def trajectory_final(stem: Path) -> tuple[int, dict]:
    path = Path(f"{stem}.trajectory.csv")
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    count, last = _last_line(path)
    return count, dict(zip(header, map(float, last.split(","))))


def _check_simulate(wl, stem: Path, check: Check) -> None:
    metrics = _rows(Path(f"{stem}.metrics.csv"))
    if len(metrics) != 1:
        check.fail(1, f"metrics.csv has {len(metrics)} rows, expected 1")
        return
    m = metrics[0]
    lines, last = trajectory_final(stem)
    dim = sum(1 for k in m if k.startswith("pop_"))
    problems = []
    if lines != wl.steps + 2:
        problems.append(f"trajectory.csv has {lines - 1} rows, expected {wl.steps + 1}")
    if float(m["final_norm_sq"]) > 1.0 + NORM_TOL or last["norm_sq"] > 1.0 + NORM_TOL:
        problems.append(f"norm growth: {m['final_norm_sq']} / {last['norm_sq']}")
    for i in range(1, dim + 1):
        if abs(float(m[f"pop_{i}"]) - last[f"pop_{i}"]) > ROW_MATCH_TOL:
            problems.append(f"last trajectory row pop_{i}={last[f'pop_{i}']} != metrics.csv {m[f'pop_{i}']}")
    if not _finite_unit(float(m["fidelity"])) or int(m["steps"]) != wl.steps:
        problems.append(f"bad metrics row: F={m['fidelity']} steps={m['steps']}")
    if problems:
        check.fail(1, "; ".join(problems))


# --- independent oracle ------------------------------------------------------

def _delta(kind: str, t: np.ndarray, duration: float, delta_m: float, omega_ref: float) -> np.ndarray:
    x = 2.0 * t / duration - 1.0
    if kind == "siquad":
        return omega_ref * np.tan(x * math.atan2(delta_m, omega_ref))
    if kind == "faquad":
        u = x * delta_m / math.hypot(delta_m, omega_ref)
        return omega_ref * u / np.sqrt(1.0 - u * u)
    return np.zeros_like(t)  # flat_pi and STIRAP are resonant


def _hamiltonians(scenario: str, kind: str, t: np.ndarray, duration: float,
                  gamma: float, scale: float, det_offset: float) -> np.ndarray:
    """Midpoint Hamiltonians (rad/s) from the physics, not from quadsim."""
    delta_m = TWO_PI * w.DELTA_M_HZ
    if scenario == "two_level":
        omega_m = TWO_PI * w.TWO_LEVEL_OMEGA_M_HZ
        h = np.zeros((t.size, 2, 2), dtype=complex)
        h[:, 0, 0] = _delta(kind, t, duration, delta_m, omega_m) + det_offset
        h[:, 0, 1] = h[:, 1, 0] = 0.5 * scale * omega_m
        return h
    omega0, big = TWO_PI * w.LAMBDA_OMEGA0_HZ, TWO_PI * w.LAMBDA_DELTA_BIG_HZ
    gap = TWO_PI * w.lambda_gap_hz()
    if kind == "stirap_gaussian":
        tau, sigma = duration / 5.0, duration / 8.0
        omega_s = omega0 * np.exp(-((t - 0.5 * (duration - tau)) ** 2) / (2.0 * sigma**2))
        omega_p = omega0 * np.exp(-((t - 0.5 * (duration + tau)) ** 2) / (2.0 * sigma**2))
    else:
        omega_p = omega_s = np.full(t.shape, omega0)
    h = np.zeros((t.size, 3, 3), dtype=complex)
    h[:, 0, 0] = _delta(kind, t, duration, delta_m, gap) + det_offset
    h[:, 0, 2] = h[:, 2, 0] = 0.5 * scale * omega_p
    h[:, 1, 2] = h[:, 2, 1] = 0.5 * scale * omega_s
    h[:, 2, 2] = big - 1j * gamma
    return h


def oracle_state(scenario: str, kind: str, duration: float, steps: int, gamma_hz: float = 0.0,
                 scale: float = 1.0, det_offset: float = 0.0) -> tuple[np.ndarray, float]:
    """Final state from |1> and the tolerance the comparison may use."""
    from scipy.linalg import expm

    dim = 2 if scenario == "two_level" else 3
    dt = duration / steps
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    max_norm = 0.0
    for lo in range(0, steps, CHUNK):
        t = (np.arange(lo, min(lo + CHUNK, steps)) + 0.5) * dt
        a = -1j * dt * _hamiltonians(scenario, kind, t, duration, TWO_PI * gamma_hz, scale, det_offset)
        max_norm = max(max_norm, float(np.max(np.linalg.norm(a, axis=(-2, -1)))))
        for u in expm(a):
            psi = u @ psi
    floor = 4.0 * np.finfo(float).eps * steps * max(1.0, max_norm)
    return psi, max(FIDELITY_TOL, floor)


@dataclass
class OracleResult:
    point: str
    deviation: float
    tolerance: float
    problem: str | None


def oracle_check(wl, out_dir: Path, seed: int) -> OracleResult:
    """Recompute one seeded point of workload `wl` and compare it with out_dir."""
    rng = random.Random(f"oracle:{wl.name}:{seed}")
    p = wl.params
    stem = Path(out_dir) / wl.name
    gamma_hz = p.get("gamma_hz", 0.0)
    if wl.command == "sweep":
        protocol = rng.choice(list(p["durations"]))
        scale = float(rng.choice(list(np.linspace(p["lo"], p["hi"], p["points"]))))
        psi, tol = oracle_state(p["scenario"], protocol, p["durations"][protocol], wl.steps, scale=scale)
        point = f"{protocol} amplitude_scale={scale!r}"
        match = [r for r in _rows(Path(f"{stem}.sweep.csv"))
                 if r["protocol"] == protocol and abs(float(r["axis_value"]) - scale) <= 1e-12]
        reported = [float(r["fidelity"]) for r in match]
        state_dev = 0.0
    elif wl.command == "compare":
        protocol = rng.choice(list(p["durations"]))
        psi, tol = oracle_state(p["scenario"], protocol, p["durations"][protocol], wl.steps, gamma_hz)
        point = f"{protocol} nominal"
        reported = [float(r["on_axis_fidelity"]) for r in _rows(Path(f"{stem}.compare_worst.csv"))
                    if r["protocol"] == protocol]
        state_dev = 0.0
    else:
        (protocol, duration), = p["durations"].items()
        psi, tol = oracle_state(p["scenario"], protocol, duration, wl.steps, gamma_hz)
        point = f"{protocol} final state"
        reported = [float(r["fidelity"]) for r in _rows(Path(f"{stem}.metrics.csv"))]
        _, last = trajectory_final(stem)
        amps = np.array([complex(last[f"re_{i + 1}"], last[f"im_{i + 1}"]) for i in range(psi.size)])
        state_dev = float(np.linalg.norm(amps - psi))
    if not reported:
        return OracleResult(point, math.inf, tol, f"oracle point {point}: no reported value")
    fidelity = float(abs(psi[1]) ** 2)
    deviation = max(max(abs(f - fidelity) for f in reported), state_dev)
    problem = None
    if not deviation <= tol:
        problem = f"oracle point {point}: deviation {deviation:.3e} > tolerance {tol:.3e}"
    return OracleResult(point, deviation, tol, problem)
