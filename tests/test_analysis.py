from __future__ import annotations

import math

import numpy as np
import pytest

from quadsim import (
    EvolveRequest,
    PulseSchedule,
    QuantumState,
    ReducedTwoLevelModel,
    RunSpec,
    ScheduleKind,
    adiabatic_elimination,
    angular,
    evolve,
    make_schedule,
    pi_time,
    run_protocol,
    t0_time,
    three_level_gap,
    transfer_metrics,
)
from quadsim.core_model import TWO_PI

from conftest import DELTA_BIG, OMEGA0, OMEGA_M, TAU_PI


class TestTransferMetrics:
    def test_exact_target(self):
        m = transfer_metrics(QuantumState.basis(2, 1), 1)
        assert m.fidelity == 1.0 and m.error == 0.0 and m.final_norm_sq == 1.0

    def test_even_superposition(self):
        state = QuantumState(np.array([1, 1], dtype=complex) / math.sqrt(2))
        m = transfer_metrics(state, 1)
        assert m.fidelity == pytest.approx(0.5, rel=1e-12)

    def test_decay_counts_as_error(self):
        state = QuantumState(np.array([0.0, math.sqrt(0.9)], dtype=complex))
        m = transfer_metrics(state, 1)
        assert m.fidelity == pytest.approx(0.9, rel=1e-12)
        assert m.error == pytest.approx(0.1, rel=1e-9)
        assert m.fidelity <= m.final_norm_sq + 1e-12

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        amps /= np.linalg.norm(amps)
        base = transfer_metrics(QuantumState(amps), 1)
        for phase in rng.uniform(0, 2 * math.pi, 10):
            rotated = transfer_metrics(QuantumState(amps * np.exp(1j * phase)), 1)
            assert rotated.fidelity == pytest.approx(base.fidelity, rel=1e-12)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            transfer_metrics(QuantumState.basis(2, 0), 2)


class TestTimescales:
    def test_pi_time_reference_value(self):
        assert pi_time(OMEGA_M) == pytest.approx(3.3333e-6, rel=1e-4)
        assert pi_time(OMEGA_M) == TAU_PI

    def test_pi_time_one_megahertz(self):
        assert pi_time(angular(1e6)) == pytest.approx(0.5e-6, rel=1e-12)

    def test_pi_time_inverse_proportionality(self):
        assert pi_time(2 * OMEGA_M) == pytest.approx(pi_time(OMEGA_M) / 2, rel=1e-12)

    def test_t0_equal_arguments(self):
        omega = angular(1e6)
        assert t0_time(omega, omega) == pytest.approx(TWO_PI / omega, rel=1e-12)

    def test_t0_reference_value_is_far_from_protocol_durations(self, lambda_params_no_decay):
        # the 2*pi*Delta/Omega^2 formula gives ~6.4e3 s here, nowhere near the
        # millisecond durations the protocols actually use (documented quirk)
        gap = three_level_gap(lambda_params_no_decay)
        t0 = t0_time(DELTA_BIG, gap)
        assert t0 == pytest.approx(TWO_PI * DELTA_BIG / gap**2, rel=1e-12)
        assert t0 == pytest.approx(6.3995e3, rel=1e-3)

    def test_t0_quadratic_in_gap(self):
        assert t0_time(DELTA_BIG, 2 * angular(1e3)) == pytest.approx(
            t0_time(DELTA_BIG, angular(1e3)) / 4, rel=1e-12
        )


class TestAdiabaticElimination:
    def test_reference_coupling(self, lambda_params_no_decay):
        eff = adiabatic_elimination(lambda_params_no_decay, OMEGA0, OMEGA0)
        assert eff.omega_eff == pytest.approx(angular(1250.0), rel=1e-12)
        assert eff.stark_shift_1 == pytest.approx(OMEGA0**2 / (4 * DELTA_BIG), rel=1e-12)
        assert eff.gamma_eff == 0.0

    def test_zero_pump_gives_zero_coupling(self, lambda_params_no_decay):
        eff = adiabatic_elimination(lambda_params_no_decay, 0.0, OMEGA0)
        assert eff.omega_eff == 0.0

    def test_effective_coupling_tracks_exact_gap(self, lambda_params_no_decay):
        gap = three_level_gap(lambda_params_no_decay)
        eff = adiabatic_elimination(lambda_params_no_decay, OMEGA0, OMEGA0)
        assert abs(eff.omega_eff - gap) / gap < 1e-3

    def test_regime_precondition(self, lambda_params_no_decay):
        with pytest.raises(ValueError):
            adiabatic_elimination(lambda_params_no_decay, DELTA_BIG / 10, OMEGA0)

    def test_decay_rate(self, lambda_params):
        eff = adiabatic_elimination(lambda_params, OMEGA0, OMEGA0)
        expected = lambda_params.gamma * 2 * OMEGA0**2 / (4 * DELTA_BIG**2)
        assert eff.gamma_eff == pytest.approx(expected, rel=1e-12)


class TestReducedModel:
    def test_differential_stark_shift_sign(self, lambda_params_no_decay):
        # pump twice as strong: level 1 is light-shifted down harder, so the
        # effective splitting drops by (s1 - s2)
        eff = adiabatic_elimination(lambda_params_no_decay, 2 * OMEGA0, OMEGA0)
        model = ReducedTwoLevelModel(eff)
        h = model.hamiltonian_batch(np.array([0.0]), np.array([eff.omega_eff]), np.array([0.0]))
        assert h[0, 0, 0].real == pytest.approx(
            -(eff.stark_shift_1 - eff.stark_shift_2), rel=1e-12
        )
        assert h[0, 0, 1] == pytest.approx(eff.omega_eff / 2, rel=1e-12)

    def test_uniform_decay_rate(self, lambda_params):
        eff = adiabatic_elimination(lambda_params, OMEGA0, OMEGA0)
        model = ReducedTwoLevelModel(eff)
        duration = 2.0 / eff.gamma_eff
        schedule = PulseSchedule(
            kind=ScheduleKind.FLAT_PI, duration=duration, drive_amplitude=eff.omega_eff
        )
        result = evolve(
            EvolveRequest(
                model=model,
                schedule=schedule,
                initial=QuantumState.basis(2, 0),
                steps=2000,
            )
        )
        assert result.final_norm_sq == pytest.approx(
            math.exp(-eff.gamma_eff * duration), rel=1e-6
        )


class TestBookkeeping:
    def test_population_budget_closes(self, lambda_params):
        # fidelity + leaked population + lost norm = initial norm
        result = run_protocol(
            RunSpec(lambda_params, steps=20_000),
            ScheduleKind.STIRAP_GAUSSIAN,
            2e-4,
        )
        metrics = transfer_metrics(result.final, 1)
        leaked = float(np.sum(result.populations)) - metrics.fidelity
        lost = 1.0 - result.final_norm_sq
        assert metrics.fidelity + leaked + lost == pytest.approx(1.0, abs=1e-9)

    def test_population_budget_without_decay(self, two_level_params):
        result = run_protocol(
            RunSpec(two_level_params, delta_m=angular(10e6), steps=20_000),
            ScheduleKind.SIQUAD,
            5.83 * TAU_PI,
        )
        metrics = transfer_metrics(result.final, 1)
        leaked = float(np.sum(result.populations)) - metrics.fidelity
        lost = 1.0 - result.final_norm_sq
        assert metrics.fidelity + leaked + lost == pytest.approx(1.0, abs=1e-9)
