from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quadsim import (
    LambdaParams,
    QuantumState,
    RunSpec,
    ScheduleKind,
    TwoLevelParams,
    angular,
    evolve,
    lambda_hamiltonian,
    lz_eigensystem,
    lz_hamiltonian,
    make_schedule,
    ordinary,
    run_protocol,
    three_level_gap,
    two_level_hamiltonian,
)
from quadsim.core_model import TWO_PI, from_entry_rows, to_entry_rows
from quadsim.propagator import EvolveRequest

from conftest import DELTA_BIG, DELTA_M, GAMMA, OMEGA0, OMEGA_M, TAU_PI


def test_angular_is_exactly_one_two_pi():
    assert angular(150e3) == TWO_PI * 150e3
    assert ordinary(angular(42.0)) == pytest.approx(42.0, rel=1e-15)


class TestQuantumState:
    def test_basis_states(self):
        s = QuantumState.basis(3, 1)
        assert s.dim == 3
        assert s.norm_sq == 1.0
        assert np.array_equal(s.populations, [0.0, 1.0, 0.0])

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            QuantumState(np.zeros(4, dtype=complex))

    def test_rejects_norm_above_one(self):
        with pytest.raises(ValueError):
            QuantumState(np.array([1.0, 1e-4], dtype=complex))

    def test_allows_decayed_norm(self):
        s = QuantumState(np.array([0.5, 0.5j], dtype=complex))
        assert s.norm_sq == pytest.approx(0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            QuantumState(np.array([np.nan, 0.0], dtype=complex))


class TestLzHamiltonian:
    def test_symmetric_crossing_at_zero_detuning(self):
        h = lz_hamiltonian(0.0, OMEGA_M)
        assert np.allclose(h, 0.5 * np.array([[0, OMEGA_M], [OMEGA_M, 0]]))
        eig = np.linalg.eigvalsh(h)
        assert eig == pytest.approx([-OMEGA_M / 2, OMEGA_M / 2], rel=1e-12)

    def test_eigenvalues_at_delta_equal_omega(self):
        eig = np.linalg.eigvalsh(lz_hamiltonian(OMEGA_M, OMEGA_M))
        assert eig == pytest.approx(
            [-OMEGA_M / math.sqrt(2), OMEGA_M / math.sqrt(2)], rel=1e-12
        )

    def test_gap_at_sweep_edge(self):
        # full splitting 2*E_plus = sqrt(delta_m^2 + Omega^2) ~ 2pi x 10.001 MHz
        es = lz_eigensystem(-DELTA_M, OMEGA_M)
        expected = math.hypot(DELTA_M, OMEGA_M)
        assert 2 * es.e_plus == pytest.approx(expected, rel=1e-12)
        assert ordinary(expected) == pytest.approx(10.001e6, rel=1e-3)

    def test_rejects_non_positive_omega(self):
        with pytest.raises(ValueError):
            lz_hamiltonian(0.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            lz_hamiltonian(math.inf, OMEGA_M)


class TestTwoLevelHamiltonian:
    def test_resonant_form(self, two_level_params):
        h = two_level_hamiltonian(0.0, two_level_params)
        assert np.allclose(h, 0.5 * np.array([[0, OMEGA_M], [OMEGA_M, 0]]))

    def test_trace_is_delta(self, two_level_params):
        h = two_level_hamiltonian(DELTA_M, two_level_params)
        assert np.trace(h) == pytest.approx(DELTA_M, rel=1e-15)

    def test_population_equivalence_with_symmetric_form(self, two_level_params):
        # the two forms differ by (delta/2)*I, a global phase: populations
        # must match through full propagation
        class SymmetricModel:
            dim = 2

            def hamiltonian_batch(self, delta, omega_p, omega_s):
                n = delta.shape[0]
                h = np.zeros((n, 2, 2), dtype=complex)
                h[:, 0, 0] = 0.5 * delta
                h[:, 1, 1] = -0.5 * delta
                h[:, 0, 1] = 0.5 * omega_p
                h[:, 1, 0] = 0.5 * omega_p
                return h

        schedule = make_schedule(
            two_level_params, ScheduleKind.SIQUAD, 3 * TAU_PI, delta_m=angular(2e6)
        )
        initial = QuantumState.basis(2, 0)
        canonical = run_protocol(
            RunSpec(two_level_params, delta_m=angular(2e6), steps=20000),
            ScheduleKind.SIQUAD,
            3 * TAU_PI,
        )
        symmetric = evolve(
            EvolveRequest(
                model=SymmetricModel(), schedule=schedule, initial=initial, steps=20000
            )
        )
        assert np.max(np.abs(canonical.populations - symmetric.populations)) < 1e-9


class TestLambdaHamiltonian:
    def test_block_structure_without_raman_fields(self):
        params = LambdaParams(
            omega_p0=0.0,
            omega_s0=0.0,
            delta_one_photon=DELTA_BIG,
            omega_m=OMEGA_M,
        )
        h = lambda_hamiltonian(DELTA_M, 0.0, 0.0, params)
        two = two_level_hamiltonian(DELTA_M, TwoLevelParams(omega_m=OMEGA_M))
        assert np.allclose(h[:2, :2], two)
        assert h[0, 2] == 0 and h[1, 2] == 0 and h[2, 0] == 0 and h[2, 1] == 0
        assert h[2, 2] == pytest.approx(DELTA_BIG)

    def test_hermitian_without_decay(self, lambda_params_no_decay):
        h = lambda_hamiltonian(DELTA_M, OMEGA0, OMEGA0, lambda_params_no_decay)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12 * np.linalg.norm(h)
        assert h[2, 2] == pytest.approx(DELTA_BIG)

    def test_decay_enters_excited_diagonal_only(self, lambda_params):
        h = lambda_hamiltonian(0.0, OMEGA0, OMEGA0, lambda_params)
        assert h[2, 2] == pytest.approx(DELTA_BIG - 1j * angular(5.6e6))
        anti = (h - h.conj().T) / 2
        expected = np.zeros((3, 3), dtype=complex)
        expected[2, 2] = -1j * GAMMA
        assert np.allclose(anti, expected, atol=1e-9)

    def test_population_stays_out_of_decoupled_level(self):
        # with both Raman fields off, level 3 never populates
        params = LambdaParams(
            omega_p0=0.0,
            omega_s0=0.0,
            delta_one_photon=angular(1e9),
            omega_m=OMEGA_M,
        )
        result = run_protocol(RunSpec(params, steps=5000), ScheduleKind.FLAT_PI, TAU_PI)
        assert result.populations[2] <= 1e-12
        assert result.populations[1] == pytest.approx(1.0, abs=1e-8)


class TestLzEigensystem:
    def test_midpoint_of_sweep(self):
        es = lz_eigensystem(0.0, OMEGA_M)
        assert es.theta == pytest.approx(math.pi / 2, rel=1e-12)
        assert es.phi_plus == pytest.approx([1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_sweep_start_is_bare_ground(self):
        es = lz_eigensystem(-DELTA_M, OMEGA_M)
        assert es.theta < 0.02
        assert es.phi_minus == pytest.approx([1.0, 0.0], abs=0.01)

    def test_sweep_end_is_bare_excited_up_to_sign(self):
        es = lz_eigensystem(+DELTA_M, OMEGA_M)
        assert es.theta > math.pi - 0.02
        assert abs(es.phi_minus[1]) == pytest.approx(1.0, abs=1e-4)
        assert es.phi_minus[1] < 0
        assert abs(es.phi_minus[0]) < 0.01

    def test_rejects_degenerate_origin(self):
        with pytest.raises(ValueError):
            lz_eigensystem(0.0, 0.0)

    def test_eigen_residuals_on_random_grid(self):
        rng = np.random.default_rng(7)
        deltas = rng.uniform(-1e8, 1e8, size=1000)
        omegas = rng.uniform(1e2, 1e8, size=1000)
        for delta, omega in zip(deltas, omegas):
            es = lz_eigensystem(delta, omega)
            h = lz_hamiltonian(delta, omega).real
            scale = np.linalg.norm(h)
            assert np.linalg.norm(h @ es.phi_plus - es.e_plus * es.phi_plus) < 1e-12 * scale
            assert np.linalg.norm(h @ es.phi_minus - es.e_minus * es.phi_minus) < 1e-12 * scale

    @given(
        delta=st.floats(-1e9, 1e9),
        omega=st.floats(1e-3, 1e9),
    )
    def test_eigenvectors_orthonormal(self, delta, omega):
        es = lz_eigensystem(delta, omega)
        assert np.dot(es.phi_plus, es.phi_plus) == pytest.approx(1.0, rel=1e-12)
        assert np.dot(es.phi_minus, es.phi_minus) == pytest.approx(1.0, rel=1e-12)
        assert abs(np.dot(es.phi_plus, es.phi_minus)) < 1e-12

    def test_theta_monotone_in_delta(self):
        deltas = np.linspace(-5 * OMEGA_M, 5 * OMEGA_M, 201)
        thetas = [lz_eigensystem(d, OMEGA_M).theta for d in deltas]
        assert np.all(np.diff(thetas) > 0)


class TestThreeLevelGap:
    def test_reference_parameters(self, lambda_params_no_decay):
        gap = three_level_gap(lambda_params_no_decay)
        # deep dispersive regime: gap ~ Omega_0^2 / (2*Delta) = 2pi x 1.25 kHz
        assert gap == pytest.approx(OMEGA0**2 / (2 * DELTA_BIG), rel=1e-6)
        assert ordinary(gap) == pytest.approx(1250.0, rel=1e-6)
        assert gap == pytest.approx(math.hypot(DELTA_BIG, OMEGA0) - DELTA_BIG, rel=1e-9)

    def test_zero_one_photon_detuning(self):
        params = LambdaParams(omega_p0=OMEGA0, omega_s0=OMEGA0, delta_one_photon=0.0)
        assert three_level_gap(params) == pytest.approx(OMEGA0, rel=1e-12)

    def test_zero_coupling(self):
        params = LambdaParams(omega_p0=0.0, omega_s0=0.0, delta_one_photon=DELTA_BIG)
        assert three_level_gap(params) == 0.0

    def test_matches_numerical_eigensplitting(self, lambda_params_no_decay):
        # closed form vs the two lowest |eigenvalue|s of the delta=0 matrix;
        # these differ at relative order (Omega_0/Delta)^2/4 ~ 6e-8, so the
        # comparison tolerance is 1e-6, not tighter
        h = lambda_hamiltonian(0.0, OMEGA0, OMEGA0, lambda_params_no_decay)
        eig = np.sort(np.abs(np.linalg.eigvalsh(h.real)))
        numeric = eig[1] - eig[0]
        assert three_level_gap(lambda_params_no_decay) == pytest.approx(numeric, rel=1e-6)

    def test_dispersive_regime_flag(self, lambda_params_no_decay):
        assert lambda_params_no_decay.in_dispersive_regime(DELTA_M)
        assert not lambda_params_no_decay.in_dispersive_regime(DELTA_BIG)
        assert not lambda_params_no_decay.in_dispersive_regime(angular(10e3))


class TestParamValidation:
    def test_two_level_rejects_zero_coupling(self):
        with pytest.raises(ValueError):
            TwoLevelParams(omega_m=0.0)

    def test_lambda_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            LambdaParams(omega_p0=OMEGA0, omega_s0=OMEGA0, delta_one_photon=DELTA_BIG, gamma=-1.0)

    def test_lambda_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LambdaParams(omega_p0=math.nan, omega_s0=OMEGA0, delta_one_photon=DELTA_BIG)


class TestEntryRows:
    """from_entry_rows views (n, n, batch) entry rows as (batch, n, n)
    matrices; to_entry_rows takes them back, copying only what is not
    already contiguous entry rows."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_round_trips_as_views(self, n):
        rng = np.random.default_rng(n)
        rows = rng.normal(size=(n, n, 5)) + 1j * rng.normal(size=(n, n, 5))
        matrices = from_entry_rows(rows)
        assert matrices.shape == (5, n, n) and np.shares_memory(matrices, rows)
        assert all(np.array_equal(matrices[b], rows[:, :, b]) for b in range(5))
        back = to_entry_rows(matrices)
        assert np.shares_memory(back, rows) and back.flags.c_contiguous
        assert np.array_equal(back, rows)

    @pytest.mark.parametrize("n", [2, 3])
    def test_batch_major_matrices_round_trip(self, n):
        rng = np.random.default_rng(n)
        matrices = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
        rows = to_entry_rows(matrices)
        assert rows.shape == (n, n, 5) and rows.flags.c_contiguous
        assert not np.shares_memory(rows, matrices)
        assert np.array_equal(from_entry_rows(rows), matrices)
