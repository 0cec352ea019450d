"""Transfer metrics, derived timescales, and the adiabatic-elimination
reduction of the Lambda system used as an independent cross-check in the
large-one-photon-detuning regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_model import LambdaParams, QuantumState, TWO_PI


@dataclass(frozen=True)
class TransferMetrics:
    """Final population of the target bare state and its complement.

    Fidelity is deliberately a bare-state population, not an eigenstate
    overlap: it is insensitive to global phase and counts decay loss as
    transfer error.
    """

    fidelity: float
    error: float
    final_norm_sq: float


def transfer_metrics(final: QuantumState, target_index: int) -> TransferMetrics:
    if not 0 <= target_index < final.dim:
        raise ValueError(f"target_index {target_index} out of range for dim {final.dim}")
    fidelity = float(final.populations[target_index])
    return TransferMetrics(
        fidelity=fidelity, error=1.0 - fidelity, final_norm_sq=final.norm_sq
    )


def pi_time(omega_m: float) -> float:
    """Duration pi/Omega of a resonant pulse that fully inverts the population."""
    if omega_m <= 0:
        raise ValueError("omega_m must be > 0")
    return math.pi / omega_m


def t0_time(delta_one_photon: float, omega_gap: float) -> float:
    """Reference timescale 2*pi*Delta/Omega^2 of the three-level regime.

    Note: with the bundled parameter set (Delta = 2*pi*10 GHz, gap =
    2*pi*1.25 kHz) this evaluates to ~6.4e3 s, wildly longer than the
    millisecond protocol durations actually used, and also inconsistent with
    pi/Omega_eff = 0.4 ms.  It is reported for reference only; durations are
    always specified in absolute seconds.
    """
    if delta_one_photon <= 0 or omega_gap <= 0:
        raise ValueError("delta_one_photon and omega_gap must be > 0")
    return TWO_PI * delta_one_photon / omega_gap**2


@dataclass(frozen=True)
class EffectiveTwoLevel:
    """Large-Delta reduction of the Lambda system onto its two ground levels:
    Raman coupling omega_eff = Omega_p*Omega_S/(2*Delta), light shift
    Omega_i^2/(4*Delta) pushing each ground level down, and a uniform
    amplitude decay gamma_eff = gamma*(Omega_p^2+Omega_S^2)/(4*Delta^2)
    inherited from the eliminated excited state."""

    omega_eff: float
    stark_shift_1: float
    stark_shift_2: float
    gamma_eff: float


def adiabatic_elimination(
    params: LambdaParams, omega_p: float, omega_s: float
) -> EffectiveTwoLevel:
    """Reduce the Lambda system to an effective two-level system.

    Valid only deep in the dispersive regime; requires
    Delta >= 100 * max(Omega_p, Omega_S).
    """
    delta = params.delta_one_photon
    if delta < 100.0 * max(omega_p, omega_s):
        raise ValueError(
            "adiabatic elimination requires delta_one_photon >= 100*max(omega_p, omega_s)"
        )
    return EffectiveTwoLevel(
        omega_eff=omega_p * omega_s / (2.0 * delta),
        stark_shift_1=omega_p**2 / (4.0 * delta),
        stark_shift_2=omega_s**2 / (4.0 * delta),
        gamma_eff=params.gamma * (omega_p**2 + omega_s**2) / (4.0 * delta**2),
    )


class ReducedTwoLevelModel:
    """Hamiltonian builder for the adiabatically eliminated two-level system.

    The effective detuning is delta(t) - (stark_shift_1 - stark_shift_2);
    since level 1 sits higher in the Hamiltonian convention, its light shift
    lowers the splitting.  With symmetric couplings the shifts cancel.
    gamma_eff enters as a uniform non-Hermitian amplitude decay, so the
    squared norm decays at rate gamma_eff.
    """

    dim = 2

    def __init__(self, effective: EffectiveTwoLevel):
        self.effective = effective

    def hamiltonian_batch(
        self, delta: np.ndarray, omega_p: np.ndarray, omega_s: np.ndarray
    ) -> np.ndarray:
        eff = self.effective
        n = delta.shape[0]
        h = np.zeros((n, 2, 2), dtype=complex)
        h[:, 0, 0] = delta - (eff.stark_shift_1 - eff.stark_shift_2)
        h[:, 0, 1] = 0.5 * omega_p
        h[:, 1, 0] = 0.5 * omega_p
        decay = -0.5j * eff.gamma_eff
        h[:, 0, 0] += decay
        h[:, 1, 1] += decay
        return h
