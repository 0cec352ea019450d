"""Physical parameters, Hamiltonians and eigensystems for the two-level
avoided-crossing model and the three-level Lambda system.

Conventions (hbar = 1, all frequencies angular, rad/s):

    H_lz  = 1/2 [[delta, Omega], [Omega, -delta]]
    H_two = 1/2 [[2*delta, Omega_M], [Omega_M, 0]]          (= H_lz + delta/2 * I)
    H_lam = 1/2 [[2*delta, Omega_M, Omega_p],
                 [Omega_M, 0,       Omega_S],
                 [Omega_p, Omega_S, 2*Delta - 2i*gamma]]

All couplings are taken real and non-negative.  delta is the swept (two-photon)
detuning, Delta the static one-photon detuning of the excited level, and gamma
an excited-state amplitude decay rate entering as a non-Hermitian diagonal term.
Configs specify ordinary frequencies in Hz; the 2*pi conversion happens exactly
once, at parse time, via :func:`angular`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

#: Angular frequencies are plain floats in rad/s.
AngularFrequency = float


def angular(frequency_hz: float) -> float:
    """Convert an ordinary frequency in Hz to angular rad/s (the one 2*pi)."""
    return TWO_PI * frequency_hz


def ordinary(omega: float) -> float:
    """Convert an angular frequency in rad/s back to ordinary Hz."""
    return omega / TWO_PI


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class QuantumState:
    """Complex amplitude vector of dimension 2 or 3.

    The squared 2-norm is 1 at initialization and may only fall below 1
    through decay (gamma > 0); anything above 1 + 1e-9 is rejected.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] not in (2, 3):
            raise ValueError(f"state dimension must be 2 or 3, got shape {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("state amplitudes must be finite")
        nsq = float(np.real(np.vdot(amps, amps)))
        if nsq > 1.0 + 1e-9:
            raise ValueError(f"squared norm {nsq} exceeds 1 + 1e-9")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, dim: int, index: int) -> "QuantumState":
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def norm_sq(self) -> float:
        return float(np.real(np.vdot(self.amplitudes, self.amplitudes)))

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class TwoLevelParams:
    """Static parameters of the directly driven two-level system."""

    omega_m: AngularFrequency

    def __post_init__(self) -> None:
        _require_finite("omega_m", self.omega_m)
        if self.omega_m <= 0:
            raise ValueError("omega_m must be > 0")


@dataclass(frozen=True)
class LambdaParams:
    """Static parameters of the three-level Lambda system.

    omega_p0/omega_s0 are the constant Raman coupling amplitudes, omega_m an
    optional direct 1-2 microwave coupling, delta_one_photon the excited-level
    offset Delta, and gamma its spontaneous-emission rate.
    """

    omega_p0: AngularFrequency
    omega_s0: AngularFrequency
    delta_one_photon: AngularFrequency
    omega_m: AngularFrequency = 0.0
    gamma: AngularFrequency = 0.0

    def __post_init__(self) -> None:
        for name in ("omega_p0", "omega_s0", "delta_one_photon", "omega_m", "gamma"):
            value = _require_finite(name, getattr(self, name))
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    def in_dispersive_regime(self, delta_m: AngularFrequency) -> bool:
        """True when Delta >= 100*delta_m and delta_m >= 100*gap, the regime
        in which the swept two-photon detuning acts on an effective two-level
        system well below the excited state."""
        gap = three_level_gap(self)
        return self.delta_one_photon >= 100.0 * delta_m and delta_m >= 100.0 * gap


@dataclass(frozen=True)
class Eigensystem2:
    """Instantaneous eigensystem of the two-level avoided crossing.

    theta = arccos(-delta / sqrt(delta^2 + Omega^2)), in [0, pi]:

        phi_plus  = (sin(theta/2),  cos(theta/2)),  E_plus  = +sqrt(delta^2+Omega^2)/2
        phi_minus = (cos(theta/2), -sin(theta/2)),  E_minus = -E_plus
    """

    e_plus: float
    e_minus: float
    theta: float
    phi_plus: np.ndarray = field(repr=False)
    phi_minus: np.ndarray = field(repr=False)


def lz_hamiltonian(delta: float, omega: float) -> np.ndarray:
    """Symmetric avoided-crossing Hamiltonian 1/2 [[delta, Omega], [Omega, -delta]]."""
    _require_finite("delta", delta)
    _require_finite("omega", omega)
    if omega <= 0:
        raise ValueError("omega must be > 0")
    return 0.5 * np.array([[delta, omega], [omega, -delta]], dtype=complex)


def two_level_hamiltonian(delta: float, params: TwoLevelParams) -> np.ndarray:
    """Two-level Hamiltonian 1/2 [[2*delta, Omega_M], [Omega_M, 0]].

    Differs from :func:`lz_hamiltonian` by the scalar shift (delta/2)*I, so
    populations under evolution are identical.
    """
    delta = _require_finite("delta", delta)
    return TwoLevelModel(params).hamiltonian_batch(
        np.array([delta]), np.array([params.omega_m]), np.zeros(1)
    )[0]


def lambda_hamiltonian(
    delta: float, omega_p: float, omega_s: float, params: LambdaParams
) -> np.ndarray:
    """Three-level Lambda Hamiltonian with non-Hermitian decay on level 3."""
    delta = _require_finite("delta", delta)
    omega_p = _require_finite("omega_p", omega_p)
    omega_s = _require_finite("omega_s", omega_s)
    return LambdaModel(params).hamiltonian_batch(
        np.array([delta]), np.array([omega_p]), np.array([omega_s])
    )[0]


def lz_eigensystem(delta: float, omega: float) -> Eigensystem2:
    """Closed-form eigensystem of :func:`lz_hamiltonian`.

    Rejects the fully degenerate point delta = omega = 0, where theta is
    undefined.
    """
    _require_finite("delta", delta)
    _require_finite("omega", omega)
    if omega < 0:
        raise ValueError("omega must be >= 0")
    if omega == 0 and delta == 0:
        raise ValueError("degenerate input: delta = omega = 0")
    root = math.hypot(delta, omega)
    theta = math.acos(min(1.0, max(-1.0, -delta / root)))
    half = 0.5 * theta
    phi_plus = np.array([math.sin(half), math.cos(half)])
    phi_minus = np.array([math.cos(half), -math.sin(half)])
    phi_plus.setflags(write=False)
    phi_minus.setflags(write=False)
    return Eigensystem2(
        e_plus=0.5 * root,
        e_minus=-0.5 * root,
        theta=theta,
        phi_plus=phi_plus,
        phi_minus=phi_minus,
    )


def three_level_gap(params: LambdaParams) -> float:
    """Energy gap sqrt(Delta^2 + Omega_0^2) - Delta of the two lowest Lambda
    levels at delta = 0 with both Raman couplings held at Omega_0.

    For Delta >> Omega_0 this approaches the two-photon coupling
    Omega_0^2 / (2*Delta); it is the reference gap entering the sweep
    schedules of the three-level protocols.
    """
    om0 = params.omega_p0
    dd = params.delta_one_photon
    # hypot-based form avoids cancellation for Delta >> Omega_0
    return om0 * om0 / (math.hypot(dd, om0) + dd) if om0 > 0 else 0.0


def reference_gap(params: TwoLevelParams | LambdaParams) -> float:
    """The minimum gap every sweep schedule is built on: Omega_M for the
    two-level system, :func:`three_level_gap` for the Lambda system."""
    if isinstance(params, TwoLevelParams):
        return params.omega_m
    return three_level_gap(params)


def from_entry_rows(rows: np.ndarray) -> np.ndarray:
    """The (batch, n, n) matrices held in (n, n, batch) entry rows, as a view
    (a transpose: no copy, and writes to it reach `rows`).

    The models' Hamiltonians and every step map are stored this way, entries
    outermost (structure of arrays): the propagator's elementwise kernels then
    read each matrix entry of a batch as one contiguous row."""
    return rows.transpose(2, 0, 1)


def to_entry_rows(u: np.ndarray) -> np.ndarray:
    """(batch, n, n) matrices as contiguous (n, n, batch) entry rows; no copy
    when u came from :func:`from_entry_rows` (of contiguous rows)."""
    return np.ascontiguousarray(u.transpose(1, 2, 0))


class TwoLevelModel:
    """Builds two-level Hamiltonian batches from schedule samples, in entry
    rows (:func:`from_entry_rows`), as :class:`LambdaModel` does, and gives
    the propagator's mirror gate its residual from the samples alone
    (:meth:`mirror_residual`)."""

    dim = 2

    def __init__(self, params: TwoLevelParams):
        self.params = params

    def hamiltonian_batch(
        self, delta: np.ndarray, omega_p: np.ndarray, omega_s: np.ndarray
    ) -> np.ndarray:
        h = np.zeros((2, 2, delta.shape[0]), dtype=complex)
        h[0, 0] = delta
        h[0, 1] = h[1, 0] = 0.5 * omega_p
        return from_entry_rows(h)

    def mirror_residual(self, controls, mirrored) -> tuple[np.ndarray, np.ndarray]:
        """c_j and ||E_j||_F^2 of H'_j = Pi H_j Pi + c_j I + E_j, Pi the swap
        of the two levels, c_j the mean of the diagonal of H'_j - Pi H_j Pi,
        H_j built from `controls` and H'_j from `mirrored`, both (delta,
        omega_p, omega_s) samples: E_j = diag(delta'_j - c_j, -delta_j - c_j)
        + (omega'_p - omega_p)/2 X.  Entry by entry with the roundings of
        H'_j - Pi H_j Pi formed from the two batches in complex arithmetic."""
        delta, omega_p, _ = controls
        delta_r, omega_pr, _ = mirrored
        c = (delta_r - delta) * 0.5
        e = np.empty((4, len(c)))  # E_00, E_01, E_10 and -E_11
        np.subtract(delta_r, c, out=e[0])
        np.subtract(0.5 * omega_pr, 0.5 * omega_p, out=e[1])
        e[2] = e[1]
        np.add(delta, c, out=e[3])
        # complex, as numpy sums a complex array in another order than a real one
        return c.astype(complex), np.einsum("ib,ib->b", e, e)


class LambdaModel:
    """Builds three-level Lambda Hamiltonian batches from schedule samples.

    The Raman couplings come from the schedule; the microwave coupling
    omega_m and the excited-level term Delta - i*gamma are static.  A batch
    is built in entry rows (:func:`from_entry_rows`), the layout the 3x3
    step exponential reads in place.  :meth:`mirror_residual` gives the
    propagator's mirror gate its residual from the samples alone.
    """

    dim = 3

    def __init__(self, params: LambdaParams):
        self.params = params

    def hamiltonian_batch(
        self, delta: np.ndarray, omega_p: np.ndarray, omega_s: np.ndarray
    ) -> np.ndarray:
        p = self.params
        h = np.zeros((3, 3, delta.shape[0]), dtype=complex)
        h[0, 0] = delta
        h[0, 1] = h[1, 0] = 0.5 * p.omega_m
        h[0, 2] = h[2, 0] = 0.5 * omega_p
        h[1, 2] = h[2, 1] = 0.5 * omega_s
        h[2, 2] = p.delta_one_photon - 1j * p.gamma
        return from_entry_rows(h)

    def mirror_residual(self, controls, mirrored) -> tuple[np.ndarray, np.ndarray]:
        """c_j and ||E_j||_F^2 of H'_j = Pi H_j Pi + c_j I + E_j, Pi the swap
        of the ground states, as :meth:`TwoLevelModel.mirror_residual` has
        them: omega_m and Delta - i gamma cancel, so E_j = diag(delta'_j - c_j,
        -delta_j - c_j, -c_j) with couplings (omega'_p - omega_s)/2 between
        levels 1 and 3 and (omega'_s - omega_p)/2 between 2 and 3."""
        delta, omega_p, omega_s = controls
        delta_r, omega_pr, omega_sr = mirrored
        # the complex mean divides by 3 as a product with 1/3
        c = (delta_r - delta) * (1.0 / 3.0)
        # E_00, E_02, -E_11, E_12, E_20, E_21 and -E_22; E_01 = E_10 = 0
        e = np.empty((7, len(c)))
        np.subtract(delta_r, c, out=e[0])
        np.subtract(0.5 * omega_pr, 0.5 * omega_s, out=e[1])
        np.add(delta, c, out=e[2])
        np.subtract(0.5 * omega_sr, 0.5 * omega_p, out=e[3])
        e[4], e[5], e[6] = e[1], e[3], c
        return c.astype(complex), np.einsum("ib,ib->b", e, e)
