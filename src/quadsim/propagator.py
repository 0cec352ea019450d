"""Time-dependent Schrodinger propagation for 2x2 and 3x3 complex, possibly
non-Hermitian Hamiltonians.

Two fixed-step methods:

    PIECEWISE_EXPM  per step, H is sampled at the interval midpoint and the
                    exact map exp(-i H dt) is applied.  Exact for constant H;
                    midpoint sampling gives global order 2.  Because each
                    sub-step is an exact exponential, fast static phases
                    (large one-photon detunings) cost nothing: the step count
                    is set by how fast the controls vary.
    RK4             classical 4th-order on dpsi/dt = -i H(t) psi, kept for
                    cross-validation; it must resolve every phase in H, so it
                    is unsuitable for stiff three-level runs.

Propagation is deterministic: identical requests give bit-identical results.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .core_model import QuantumState
from .schedules import PulseSchedule

_CHUNK = 65536
_NORM_ABORT = 1e-6

DEFAULT_STEPS = {2: 100_000, 3: 500_000}
MIN_STEPS = 10


def resolve_steps(steps: int | None, dim: int) -> int:
    """`steps` when given, else the default step count for a `dim`-level system."""
    return DEFAULT_STEPS[dim] if steps is None else int(steps)


class Method(enum.Enum):
    PIECEWISE_EXPM = "piecewise_expm"
    RK4 = "rk4"


class IntegrationError(RuntimeError):
    """Propagation produced non-finite amplitudes or unphysical norm growth."""


@dataclass(frozen=True)
class EvolveRequest:
    """One propagation task.  amplitude_scale multiplies and amplitude_offset
    shifts the schedule's coupling amplitudes; detuning_offset adds a constant
    to delta(t); all three model systematic control errors.  time_reversed
    runs the schedule backwards with H negated (gamma must be 0)."""

    model: object
    schedule: PulseSchedule
    initial: QuantumState
    steps: int | None = None
    method: Method = Method.PIECEWISE_EXPM
    store_trajectory: bool = False
    amplitude_scale: float = 1.0
    amplitude_offset: float = 0.0
    detuning_offset: float = 0.0
    time_reversed: bool = False


@dataclass(frozen=True)
class EvolveResult:
    final: QuantumState
    final_norm_sq: float
    populations: np.ndarray
    trajectory: tuple[np.ndarray, np.ndarray] | None = None


def expm_small(a: np.ndarray) -> np.ndarray:
    """Matrix exponential for small dense matrices (batched over leading axes)
    by scaling and squaring with a fixed 16-term Taylor series.

    The batch is scaled by a power of two so every Frobenius norm is <= 0.5,
    the series is summed by Horner's rule, and the result squared back.
    Accurate to ~1e-12 relative in Frobenius norm for finite input.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite matrix entries")
    norms = np.linalg.norm(a, axis=(-2, -1))
    max_norm = float(np.max(norms)) if norms.size else 0.0
    k = 0 if max_norm <= 0.5 else int(math.ceil(math.log2(max_norm / 0.5)))
    b = a / (2.0**k)
    n = a.shape[-1]
    eye = np.broadcast_to(np.eye(n, dtype=complex), b.shape)
    p = eye.copy()
    for j in range(16, 0, -1):
        p = eye + (b / j) @ p
    for _ in range(k):
        p = p @ p
    return p


def _unitarize(u: np.ndarray) -> np.ndarray:
    # one Newton step toward the polar factor; keeps gamma=0 step maps unitary
    # to machine precision so norm drift stays ~N*eps even at 1e6 steps
    eye = np.broadcast_to(np.eye(u.shape[-1], dtype=complex), u.shape)
    gram = np.conj(np.swapaxes(u, -1, -2)) @ u
    return u @ (1.5 * eye - 0.5 * gram)


def _chain_apply(u: np.ndarray, psi: np.ndarray) -> np.ndarray:
    # psi -> U[m-1] @ ... @ U[0] @ psi via pairwise products (vectorized)
    m = u
    while m.shape[0] > 1:
        n = m.shape[0]
        even = (n // 2) * 2
        paired = m[1:even:2] @ m[0:even:2]
        m = np.concatenate([paired, m[-1:]], axis=0) if n % 2 else paired
    return m[0] @ psi


def _check_state(psi: np.ndarray) -> float:
    if not np.all(np.isfinite(psi)):
        raise IntegrationError("non-finite amplitudes during propagation")
    nsq = float(np.real(np.vdot(psi, psi)))
    if nsq > 1.0 + _NORM_ABORT:
        raise IntegrationError(f"norm growth: |psi|^2 = {nsq}")
    return nsq


def _controls(req: EvolveRequest, t: np.ndarray):
    """Schedule samples at (possibly time-reversed) instants t."""
    sched = req.schedule
    sample_t = sched.duration - t if req.time_reversed else t
    delta = sched.delta(sample_t) + req.detuning_offset
    omega_p, omega_s = sched.pulses(sample_t)
    scale, shift = req.amplitude_scale, req.amplitude_offset
    return delta, scale * omega_p + shift, scale * omega_s + shift


def _hamiltonian_chunk(req: EvolveRequest, t: np.ndarray) -> np.ndarray:
    delta, omega_p, omega_s = _controls(req, t)
    h = req.model.hamiltonian_batch(delta, omega_p, omega_s)
    return -h if req.time_reversed else h


def evolve(req: EvolveRequest) -> EvolveResult:
    model = req.model
    dim = model.dim
    if req.initial.dim != dim:
        raise ValueError(f"state dimension {req.initial.dim} != model dimension {dim}")
    steps = resolve_steps(req.steps, dim)
    if steps < MIN_STEPS:
        raise ValueError(f"steps must be >= {MIN_STEPS}")
    gamma = getattr(model, "gamma", 0.0)
    if req.time_reversed and gamma != 0.0:
        raise ValueError("time reversal requires gamma = 0")

    duration = req.schedule.duration
    dt = duration / steps
    psi = np.array(req.initial.amplitudes, dtype=complex)

    traj_states = None
    if req.store_trajectory:
        traj_states = np.empty((steps + 1, dim), dtype=complex)
        traj_states[0] = psi

    if req.method is Method.PIECEWISE_EXPM:
        for lo in range(0, steps, _CHUNK):
            hi = min(lo + _CHUNK, steps)
            mid = (np.arange(lo, hi) + 0.5) * dt
            u = expm_small(-1j * dt * _hamiltonian_chunk(req, mid))
            if gamma == 0.0:
                u = _unitarize(u)
            if req.store_trajectory:
                for j in range(hi - lo):
                    psi = u[j] @ psi
                    traj_states[lo + j + 1] = psi
            else:
                psi = _chain_apply(u, psi)
            _check_state(psi)
    elif req.method is Method.RK4:
        half_grid = np.linspace(0.0, duration, 2 * steps + 1)
        # divergence is caught by the norm check, so silence the float
        # warnings an unstable run emits on its way there
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, steps, _CHUNK):
                hi = min(lo + _CHUNK, steps)
                a = -1j * _hamiltonian_chunk(req, half_grid[2 * lo : 2 * hi + 1])
                for j in range(hi - lo):
                    a0, am, a1 = a[2 * j], a[2 * j + 1], a[2 * j + 2]
                    k1 = a0 @ psi
                    k2 = am @ (psi + (0.5 * dt) * k1)
                    k3 = am @ (psi + (0.5 * dt) * k2)
                    k4 = a1 @ (psi + dt * k3)
                    psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    if req.store_trajectory:
                        traj_states[lo + j + 1] = psi
                _check_state(psi)
    else:
        raise ValueError(f"unknown method {req.method!r}")

    final_norm_sq = _check_state(psi)
    if final_norm_sq > 1.0 + 1e-9:
        raise IntegrationError(
            f"final |psi|^2 = {final_norm_sq} exceeds 1 + 1e-9; increase steps"
        )
    trajectory = None
    if req.store_trajectory:
        times = np.linspace(0.0, duration, steps + 1)
        if not np.all(np.isfinite(traj_states)):
            raise IntegrationError("non-finite amplitudes in stored trajectory")
        trajectory = (times, traj_states)
    return EvolveResult(
        final=QuantumState(psi),
        final_norm_sq=final_norm_sq,
        populations=np.abs(psi) ** 2,
        trajectory=trajectory,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Errors against the richest refinement and the observed order."""

    rows: list[tuple[int, float]]
    orders: list[float]
    order: float


def convergence_probe(req: EvolveRequest, refinements: int = 4) -> ConvergenceReport:
    """Run evolve at steps, 2*steps, ... and report the observed convergence
    order.

    The error metric is the 2-norm difference of the final state vector
    against the richest run (one further doubling).  The raw vector, global
    phase included, is the solver's actual ODE error; population errors can
    superconverge on near-adiabatic schedules and would overstate the order.
    """
    if refinements < 3:
        raise ValueError("refinements must be >= 3")
    base = resolve_steps(req.steps, req.model.dim)
    levels = [base * 2**j for j in range(refinements + 1)]
    finals = [
        evolve(replace(req, steps=n, store_trajectory=False)).final.amplitudes
        for n in levels
    ]
    richest = finals[-1]
    rows = [
        (levels[j], float(np.linalg.norm(finals[j] - richest)))
        for j in range(refinements)
    ]
    orders = [
        math.log2(rows[j][1] / rows[j + 1][1]) if rows[j + 1][1] > 0 else math.inf
        for j in range(refinements - 1)
    ]
    finite = [p for p in orders if math.isfinite(p)]
    order = float(np.mean(finite)) if finite else math.inf
    return ConvergenceReport(rows=rows, orders=orders, order=order)


def write_trajectory_csv(result: EvolveResult, path) -> None:
    """Dump a stored trajectory: t_s, re/im of each amplitude, norm_sq, populations."""
    if result.trajectory is None:
        raise ValueError("result has no stored trajectory")
    times, states = result.trajectory
    dim = states.shape[1]
    cols = ["t_s"]
    for i in range(dim):
        cols += [f"re_{i + 1}", f"im_{i + 1}"]
    cols.append("norm_sq")
    cols += [f"pop_{i + 1}" for i in range(dim)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for t, psi in zip(times, states):
            pops = np.abs(psi) ** 2
            vals = [t]
            for i in range(dim):
                vals += [psi[i].real, psi[i].imag]
            vals.append(float(np.sum(pops)))
            vals += list(pops)
            fh.write(",".join(format(x, ".15e") for x in vals) + "\n")
