"""Control schedules delta(t), Omega_p(t), Omega_S(t) and adiabaticity
functionals along them.

A sweep schedule drives the detuning from delta(0) = -delta_m through zero at
t = T/2 to delta(T) = +delta_m.  Two dimensionless rates measure how fast the
sweep crosses the gap Omega:

    s  = (ddelta/dt) * Omega / (2 * (delta^2 + Omega^2)^(3/2))   (standard)
    s' = (ddelta/dt) / (2 * (delta^2 + Omega^2))                 (rigorous)

Since s = s' * Omega / sqrt(delta^2 + Omega^2) <= s', holding s' small is the
stricter requirement.  The schedules implemented here:

    SIQUAD  delta(t) = Omega * tan[(2t/T - 1) * arctan(delta_m/Omega)]
            holds s' constant at arctan(delta_m/Omega) / (T*Omega).
    FAQUAD  delta(t) = Omega * u / sqrt(1 - u^2),
            u = (2t/T - 1) * delta_m / sqrt(delta_m^2 + Omega^2),
            holds s constant (quadrature of the constant-s condition).
    LINEAR  delta(t) = delta_m * (2t/T - 1), the classic constant-rate ramp.
    FLAT_PI resonant constant drive, delta = 0.
    STIRAP_GAUSSIAN  delta = 0 with a counterintuitively ordered Gaussian
            pulse pair (Stokes precedes pump).

All functions are closed-form and evaluated on demand; the propagator picks
its own time grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from ._csvfloat import render_rows
from .core_model import lz_eigensystem, lz_hamiltonian


class ScheduleKind(enum.Enum):
    SIQUAD = "siquad"
    FAQUAD = "faquad"
    LINEAR = "linear"
    FLAT_PI = "flat_pi"
    STIRAP_GAUSSIAN = "stirap_gaussian"


SWEEP_KINDS = frozenset(
    {ScheduleKind.SIQUAD, ScheduleKind.FAQUAD, ScheduleKind.LINEAR}
)

_T_TOL = 1e-9  # relative slack for t-range checks at grid endpoints


def _check_time(t, duration: float):
    t = np.asarray(t, dtype=float)
    tol = _T_TOL * duration
    if np.any(t < -tol) or np.any(t > duration + tol):
        raise ValueError(f"t outside [0, {duration}]")
    return np.clip(t, 0.0, duration)


def siquad_delta(t, duration: float, delta_m: float, omega: float):
    """Tangent sweep holding the rigorous rate s' constant."""
    t = _check_time(t, duration)
    a = math.atan2(delta_m, omega)
    return omega * np.tan((2.0 * t / duration - 1.0) * a)


def siquad_sprime_value(duration: float, delta_m: float, omega: float) -> float:
    """The constant value of s' along the SIQUAD sweep: arctan(delta_m/Omega)/(T*Omega)."""
    return math.atan2(delta_m, omega) / (duration * omega)


def faquad_delta(t, duration: float, delta_m: float, omega: float):
    """Constant-s sweep: delta = Omega*u/sqrt(1-u^2) with u linear in t."""
    t = _check_time(t, duration)
    u_m = delta_m / math.hypot(delta_m, omega)
    u = (2.0 * t / duration - 1.0) * u_m
    usq = u * u
    if np.any(usq >= 1.0):
        raise ValueError("internal: |u| >= 1 in faquad_delta")
    return omega * u / np.sqrt(1.0 - usq)


def linear_delta(t, duration: float, delta_m: float):
    """Constant-rate ramp from -delta_m to +delta_m."""
    t = _check_time(t, duration)
    return delta_m * (2.0 * t / duration - 1.0)


def stirap_pulses(
    t, duration: float, omega0: float, tau_sep: float, sigma: float, omega0_s: float | None = None
):
    """Counterintuitive Gaussian pair: Stokes peaks at (T - tau_sep)/2,
    pump at (T + tau_sep)/2, both of width sigma; the pump's peak is omega0,
    the Stokes peak omega0_s (omega0 when None)."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    if not 0 < tau_sep < duration:
        raise ValueError("tau_sep must lie in (0, duration)")
    t = np.asarray(t, dtype=float)
    peak_s = omega0 if omega0_s is None else omega0_s
    omega_s = peak_s * np.exp(-((t - 0.5 * (duration - tau_sep)) ** 2) / (2.0 * sigma**2))
    omega_p = omega0 * np.exp(-((t - 0.5 * (duration + tau_sep)) ** 2) / (2.0 * sigma**2))
    return omega_p, omega_s


def adiabaticity_s(delta, ddelta_dt, omega: float):
    """Standard adiabaticity rate (ddelta/dt)*Omega / (2*(delta^2+Omega^2)^(3/2))."""
    if omega <= 0:
        raise ValueError("omega must be > 0")
    delta = np.asarray(delta, dtype=float)
    return 0.5 * np.asarray(ddelta_dt) * omega / (delta * delta + omega * omega) ** 1.5


def adiabaticity_sprime(delta, ddelta_dt, omega: float):
    """Rigorous adiabaticity rate (ddelta/dt) / (2*(delta^2+Omega^2))."""
    if omega <= 0:
        raise ValueError("omega must be > 0")
    delta = np.asarray(delta, dtype=float)
    return 0.5 * np.asarray(ddelta_dt) / (delta * delta + omega * omega)


@dataclass(frozen=True)
class PulseSchedule:
    """A protocol's time-dependent controls over [0, duration].

    omega_ref is the minimum gap entering the sweep construction, as given by
    :func:`quadsim.core_model.reference_gap`.
    drive_amplitude is the constant coupling amplitude fed to the Hamiltonian
    (for STIRAP_GAUSSIAN it is the Gaussian peak); drive_amplitude_s, when
    set, gives the Stokes leg its own amplitude (for STIRAP_GAUSSIAN its own
    peak).  tau_sep and sigma apply to STIRAP_GAUSSIAN only and default to
    duration/5 and duration/8.
    """

    kind: ScheduleKind
    duration: float
    delta_m: float = 0.0
    omega_ref: float = 0.0
    drive_amplitude: float = 0.0
    drive_amplitude_s: float | None = None
    tau_sep: float | None = None
    sigma: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError("duration must be finite and > 0")
        if self.drive_amplitude < 0 or not math.isfinite(self.drive_amplitude):
            raise ValueError("drive_amplitude must be finite and >= 0")
        if self.drive_amplitude_s is not None and (
            self.drive_amplitude_s < 0 or not math.isfinite(self.drive_amplitude_s)
        ):
            raise ValueError("drive_amplitude_s must be finite and >= 0")
        if self.kind in SWEEP_KINDS:
            if self.delta_m <= 0:
                raise ValueError(f"{self.kind.value} requires delta_m > 0")
            if self.omega_ref <= 0:
                raise ValueError(f"{self.kind.value} requires omega_ref > 0")
        if self.kind is ScheduleKind.STIRAP_GAUSSIAN:
            object.__setattr__(
                self, "tau_sep", self.duration / 5.0 if self.tau_sep is None else self.tau_sep
            )
            object.__setattr__(
                self, "sigma", self.duration / 8.0 if self.sigma is None else self.sigma
            )
            if not 0 < self.tau_sep < self.duration:
                raise ValueError("tau_sep must lie in (0, duration)")
            if self.sigma <= 0:
                raise ValueError("sigma must be > 0")

    def delta(self, t):
        if self.kind is ScheduleKind.SIQUAD:
            return siquad_delta(t, self.duration, self.delta_m, self.omega_ref)
        if self.kind is ScheduleKind.FAQUAD:
            return faquad_delta(t, self.duration, self.delta_m, self.omega_ref)
        if self.kind is ScheduleKind.LINEAR:
            return linear_delta(t, self.duration, self.delta_m)
        return np.zeros_like(np.asarray(t, dtype=float))

    def pulses(self, t):
        """Coupling amplitudes (omega_p, omega_s) at time t; constant drives
        except for the STIRAP Gaussian pair."""
        drive_s = self.drive_amplitude if self.drive_amplitude_s is None else self.drive_amplitude_s
        if self.kind is ScheduleKind.STIRAP_GAUSSIAN:
            return stirap_pulses(
                t, self.duration, self.drive_amplitude, self.tau_sep, self.sigma, drive_s
            )
        t = np.asarray(t, dtype=float)
        return np.full_like(t, self.drive_amplitude), np.full_like(t, drive_s)

    def with_duration(self, duration: float) -> "PulseSchedule":
        """Rescale to a new total duration; STIRAP pulse timings scale along."""
        if self.kind is ScheduleKind.STIRAP_GAUSSIAN:
            ratio = duration / self.duration
            return replace(
                self, duration=duration, tau_sep=self.tau_sep * ratio, sigma=self.sigma * ratio
            )
        return replace(self, duration=duration)


def delta_derivative(schedule: PulseSchedule, t):
    """d(delta)/dt along the schedule: analytic for the sweep closed forms,
    zero for FLAT_PI and STIRAP, whose delta is identically zero."""
    dur = schedule.duration
    t = _check_time(t, dur)
    if schedule.kind is ScheduleKind.SIQUAD:
        a = math.atan2(schedule.delta_m, schedule.omega_ref)
        x = 2.0 * t / dur - 1.0
        return (2.0 * a / dur) * schedule.omega_ref / np.cos(a * x) ** 2
    if schedule.kind is ScheduleKind.FAQUAD:
        u_m = schedule.delta_m / math.hypot(schedule.delta_m, schedule.omega_ref)
        u = (2.0 * t / dur - 1.0) * u_m
        return schedule.omega_ref * (2.0 * u_m / dur) / (1.0 - u * u) ** 1.5
    if schedule.kind is ScheduleKind.LINEAR:
        return np.full_like(np.asarray(t, dtype=float), 2.0 * schedule.delta_m / dur)
    return np.zeros_like(t)


@dataclass(frozen=True)
class AdiabaticityReport:
    """Sampled adiabaticity rates along a schedule: rows of (t, s, s')."""

    samples: np.ndarray
    max_s: float
    max_s_prime: float


def adiabaticity_report(schedule: PulseSchedule, n_samples: int = 1001) -> AdiabaticityReport:
    if schedule.kind not in SWEEP_KINDS:
        times = np.linspace(0.0, schedule.duration, n_samples)
        zeros = np.zeros(n_samples)
        return AdiabaticityReport(np.column_stack([times, zeros, zeros]), 0.0, 0.0)
    times = np.linspace(0.0, schedule.duration, n_samples)
    d = schedule.delta(times)
    dd = delta_derivative(schedule, times)
    s = adiabaticity_s(d, dd, schedule.omega_ref)
    sp = adiabaticity_sprime(d, dd, schedule.omega_ref)
    samples = np.column_stack([times, s, sp])
    samples.setflags(write=False)
    return AdiabaticityReport(samples, float(np.max(s)), float(np.max(sp)))


def rotating_frame_check(delta: float, ddelta_dt: float, omega: float):
    """Numerically transform the avoided-crossing Hamiltonian to the frame of
    its instantaneous eigenvectors and return (diag_gap, offdiag_coupling).

    Builds V = (phi_plus, phi_minus) along the path delta + ddelta_dt*tau and
    forms H~ = i (dV+/dt) V + V+ H V by central differences.  Verifies the
    off-diagonal magnitude equals |dtheta/dt|/2 = (ddelta/dt)*Omega /
    (2*(delta^2+Omega^2)) and the diagonal splitting equals
    sqrt(delta^2+Omega^2), to 1e-9 relative.
    """
    if omega <= 0:
        raise ValueError("omega must be > 0")
    es = lz_eigensystem(delta, omega)
    h = lz_hamiltonian(delta, omega)
    gap_expected = es.e_plus - es.e_minus
    theta_dot = ddelta_dt * omega / (delta * delta + omega * omega)
    if theta_dot == 0.0:
        return gap_expected, 0.0

    def v_matrix(dlt: float) -> np.ndarray:
        e = lz_eigensystem(dlt, omega)
        return np.column_stack([e.phi_plus, e.phi_minus]).astype(complex)

    # fourth-order stencil with the theta step shrunk by Omega/hypot: keeps
    # both truncation (path curvature grows as delta/Omega) and roundoff well
    # below the 1e-9 verification tolerance
    dtheta = 3e-4 * omega / math.hypot(delta, omega)
    step = dtheta / abs(theta_dot)
    vs = [v_matrix(delta + ddelta_dt * k * step) for k in (-2, -1, 1, 2)]
    v = v_matrix(delta)
    dv_dt = (vs[0] - 8.0 * vs[1] + 8.0 * vs[2] - vs[3]) / (12.0 * step)
    h_rot = 1j * dv_dt.conj().T @ v + v.conj().T @ h @ v

    offdiag = abs(h_rot[0, 1])
    diag_gap = float(np.real(h_rot[0, 0] - h_rot[1, 1]))
    expected_off = 0.5 * abs(theta_dot)
    if abs(offdiag - expected_off) > 1e-9 * expected_off:
        raise RuntimeError(
            f"rotating-frame coupling {offdiag} != |dtheta/dt|/2 = {expected_off}"
        )
    if abs(diag_gap - gap_expected) > 1e-9 * gap_expected:
        raise RuntimeError(f"rotating-frame gap {diag_gap} != {gap_expected}")
    return diag_gap, offdiag


def schedule_table(schedule: PulseSchedule, n_samples: int = 501) -> np.ndarray:
    """Sample the schedule into columns (t_s, delta_rad_s, omega_p_rad_s, omega_s_rad_s)."""
    times = np.linspace(0.0, schedule.duration, n_samples)
    d = schedule.delta(times)
    op, os_ = schedule.pulses(times)
    return np.column_stack([times, d, op, os_])


def write_schedule_csv(schedule: PulseSchedule, path, n_samples: int = 501) -> None:
    """Write `schedule_table` as CSV, each value as format(x, ".15e")."""
    with open(path, "wb") as fh:
        fh.write(b"t_s,delta_rad_s,omega_p_rad_s,omega_s_rad_s\n")
        fh.write(render_rows(schedule_table(schedule, n_samples)))
