from __future__ import annotations

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from quadsim import (
    EvolveRequest,
    IntegrationError,
    LambdaParams,
    Method,
    PulseSchedule,
    QuantumState,
    RunSpec,
    ScheduleKind,
    convergence_probe,
    evolve,
    expm_small,
    make_model,
    make_schedule,
    run_protocol,
    write_trajectory_csv,
)
from quadsim import propagator

from conftest import DELTA_M, OMEGA_M, TAU_PI


def mpmath_expm(a: np.ndarray, terms: int = 60, dps: int = 50) -> np.ndarray:
    """Brute-force Taylor series oracle in extended precision."""
    with mpmath.workdps(dps):
        n = a.shape[0]
        m = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                m[i, j] = mpmath.mpc(a[i, j].real, a[i, j].imag)
        total = mpmath.eye(n)
        term = mpmath.eye(n)
        for k in range(1, terms + 1):
            term = term * m / k
            total += term
        out = np.empty((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                out[i, j] = complex(total[i, j])
    return out


class TestExpmSmall:
    def test_zero_matrix(self):
        assert np.array_equal(expm_small(np.zeros((3, 3))), np.eye(3))

    def test_pauli_x_half_rotation(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        result = expm_small(-1j * (math.pi / 2) * x)
        assert np.max(np.abs(result - (-1j) * x)) < 1e-12

    # the 3x3 cases keep their original ids
    @pytest.mark.parametrize(
        "dim, seed",
        [pytest.param(3, seed, id=str(seed)) for seed in range(5)]
        + [pytest.param(2, seed, id=f"2x2-{seed}") for seed in range(5)],
    )
    def test_matches_extended_precision_series(self, dim, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a /= np.linalg.norm(a)
        expected = mpmath_expm(a)
        got = expm_small(a)
        assert np.linalg.norm(got - expected) < 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("dim", [3, 2], ids=["3x3", "2x2"])
    def test_scaling_path_large_norm(self, dim):
        rng = np.random.default_rng(42)
        h = rng.normal(size=(dim, dim))
        h = h + h.T
        a = -1j * h * (40.0 / np.linalg.norm(h))
        expected = mpmath_expm(a, terms=200)
        got = expm_small(a)
        assert np.linalg.norm(got - expected) < 1e-12 * np.linalg.norm(expected)

    def test_non_hermitian_2x2(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a *= 5.0 / np.linalg.norm(a)
        expected = mpmath_expm(a, terms=120)
        got = expm_small(a)
        assert np.linalg.norm(got - expected) < 1e-12 * np.linalg.norm(expected)

    def test_2x2_zero_s_is_exact(self):
        # s = 0 in the closed form: a nilpotent matrix and a multiple of I
        nilpotent = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.array_equal(expm_small(nilpotent), [[1, 1], [0, 1]])
        c = 0.7 - 1.3j
        assert np.array_equal(expm_small(c * np.eye(2)), np.exp(c) * np.eye(2))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_wide_eigenvalue_spread_stays_finite(self, dim):
        # e^-1500 underflows and cosh(750) overflows; exp(A) is still finite
        diag = np.array([0.3 - 2j] + [-1500.0] * (dim - 1))
        got = expm_small(np.diag(diag))
        assert np.linalg.norm(got - np.diag(np.exp(diag))) < 1e-12 * abs(np.exp(diag[0]))

    def test_block_boundary_is_bitwise_invisible(self):
        rng = np.random.default_rng(3)
        n = propagator._BLOCK + 3
        batch = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
        batch *= 7.0 / np.linalg.norm(batch, axis=(-2, -1))[:, None, None]
        together = expm_small(batch)
        head = expm_small(batch[: propagator._BLOCK])
        tail = expm_small(batch[propagator._BLOCK :])
        assert np.array_equal(together, np.concatenate([head, tail]))

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
        batch *= 0.3
        together = expm_small(batch)
        for k in range(6):
            # per-slice scaling may differ from the batch-wide choice; both
            # sides are exponentials accurate to ~1e-12
            assert np.allclose(together[k], expm_small(batch[k]), atol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            expm_small(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            expm_small(np.array([[np.inf, 0], [0, 0]]))


def two_level_request(
    protocol=ScheduleKind.SIQUAD,
    duration=5.83 * TAU_PI,
    delta_m=DELTA_M,
    steps=20000,
    **kwargs,
):
    from quadsim import TwoLevelParams

    params = TwoLevelParams(omega_m=OMEGA_M)
    model = make_model(params)
    schedule = make_schedule(params, protocol, duration, delta_m=delta_m)
    return EvolveRequest(
        model=model,
        schedule=schedule,
        initial=QuantumState.basis(2, 0),
        steps=steps,
        **kwargs,
    )


class TestEvolveTwoLevel:
    def test_resonant_pi_pulse_inverts(self):
        result = evolve(two_level_request(ScheduleKind.FLAT_PI, TAU_PI, 0.0, steps=1000))
        assert result.populations[1] == pytest.approx(1.0, abs=1e-10)

    def test_norm_conserved_without_decay(self):
        for steps in (10_000, 100_000):
            result = evolve(two_level_request(steps=steps))
            assert abs(result.final_norm_sq - 1.0) < 1e-9

    def test_deterministic_repeat(self):
        a = evolve(two_level_request(steps=4000)).final.amplitudes
        b = evolve(two_level_request(steps=4000)).final.amplitudes
        assert np.array_equal(a, b)

    def test_method_agreement(self):
        req = two_level_request(
            duration=3 * TAU_PI, delta_m=2 * math.pi * 2e6, steps=200_000
        )
        pop_expm = evolve(req).populations
        pop_rk4 = evolve(replace(req, steps=100_000, method=Method.RK4)).populations
        assert np.max(np.abs(pop_expm - pop_rk4)) < 1e-8

    def test_time_reversal_returns_initial(self):
        req = two_level_request(steps=20_000)
        forward = evolve(req)
        back = evolve(replace(req, initial=forward.final, time_reversed=True))
        assert np.linalg.norm(back.final.amplitudes - np.array([1.0, 0.0])) < 1e-7

    def test_trajectory_shape_and_endpoints(self):
        req = two_level_request(steps=500, store_trajectory=True)
        result = evolve(req)
        times, states = result.trajectory
        assert times.shape == (501,) and states.shape == (501, 2)
        assert times[0] == 0.0 and times[-1] == pytest.approx(req.schedule.duration)
        assert np.array_equal(states[0], [1.0, 0.0])
        assert np.array_equal(states[-1], result.final.amplitudes)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            evolve(two_level_request(steps=5))
        with pytest.raises(ValueError):
            evolve(replace(two_level_request(), initial=QuantumState.basis(3, 0)))


def decay_params(gamma: float) -> LambdaParams:
    return LambdaParams(
        omega_p0=0.0, omega_s0=0.0, delta_one_photon=2 * math.pi * 1e6, gamma=gamma
    )


def toy_lambda_request(gamma=2 * math.pi * 0.3e6, steps=20000, **kwargs):
    # small detunings so the dynamics is smooth at modest step counts
    params = LambdaParams(
        omega_p0=2 * math.pi * 1e6,
        omega_s0=2 * math.pi * 1e6,
        delta_one_photon=2 * math.pi * 3e6,
        gamma=gamma,
    )
    model = make_model(params)
    schedule = make_schedule(params, ScheduleKind.FLAT_PI, 2e-6)
    return EvolveRequest(
        model=model,
        schedule=schedule,
        initial=QuantumState.basis(3, 0),
        steps=steps,
        **kwargs,
    )


class TestEvolveWithDecay:
    def test_bare_excited_state_decays_exponentially(self):
        gamma = 2 * math.pi * 5.6e6
        params = decay_params(gamma)
        model = make_model(params)
        duration = 3.0 / (2 * gamma)
        schedule = make_schedule(params, ScheduleKind.FLAT_PI, duration)
        result = evolve(
            EvolveRequest(
                model=model,
                schedule=schedule,
                initial=QuantumState.basis(3, 2),
                steps=400,
                store_trajectory=True,
            )
        )
        times, states = result.trajectory
        norms = np.sum(np.abs(states) ** 2, axis=1)
        assert np.max(np.abs(norms - np.exp(-2 * gamma * times))) < 1e-9

    def test_norm_monotone_nonincreasing(self):
        result = evolve(toy_lambda_request(store_trajectory=True))
        _, states = result.trajectory
        norms = np.sum(np.abs(states) ** 2, axis=1)
        assert np.all(np.diff(norms) <= 1e-12)
        assert result.final_norm_sq < 0.99

    def test_norm_loss_rate_matches_excited_population(self):
        # d|psi|^2/dt = -2*gamma*|c3|^2; finite differences of the stored
        # trajectory, sampled away from |c3|^2 ~ 0 where the relative
        # comparison is ill-conditioned
        gamma = 2 * math.pi * 0.3e6
        result = evolve(toy_lambda_request(gamma=gamma, steps=200_000, store_trajectory=True))
        times, states = result.trajectory
        norms = np.sum(np.abs(states) ** 2, axis=1)
        pop3 = np.abs(states[:, 2]) ** 2
        h = times[1] - times[0]
        fd = (norms[2:] - norms[:-2]) / (2 * h)
        expected = -2 * gamma * pop3[1:-1]
        mask = pop3[1:-1] > 0.05 * np.max(pop3)
        rel = np.abs(fd[mask] - expected[mask]) / np.abs(expected[mask])
        assert np.max(rel) < 1e-6

    def test_growth_aborts(self):
        class GrowingModel:
            dim = 2
            gamma = 1.0  # skips the unitary projection

            def hamiltonian_batch(self, delta, omega_p, omega_s):
                h = np.zeros((delta.shape[0], 2, 2), dtype=complex)
                h[:, 1, 1] = 1j * 1e7  # amplitude gain
                return h

        schedule = PulseSchedule(kind=ScheduleKind.FLAT_PI, duration=1e-5, drive_amplitude=0.0)
        with pytest.raises(IntegrationError):
            evolve(
                EvolveRequest(
                    model=GrowingModel(),
                    schedule=schedule,
                    initial=QuantumState.basis(2, 1),
                    steps=100,
                )
            )

    def test_rk4_unstable_on_stiff_system_aborts(self):
        params = LambdaParams(
            omega_p0=2 * math.pi * 5e6,
            omega_s0=2 * math.pi * 5e6,
            delta_one_photon=2 * math.pi * 10e9,
        )
        model = make_model(params)
        schedule = make_schedule(params, ScheduleKind.SIQUAD, 2.85e-3, delta_m=DELTA_M)
        with pytest.raises(IntegrationError):
            evolve(
                EvolveRequest(
                    model=model,
                    schedule=schedule,
                    initial=QuantumState.basis(3, 0),
                    steps=10_000,
                    method=Method.RK4,
                )
            )

    def test_time_reversal_rejected_with_decay(self):
        with pytest.raises(ValueError):
            evolve(toy_lambda_request(time_reversed=True))


class TestConvergenceProbe:
    def test_constant_hamiltonian_is_exact(self):
        report = convergence_probe(
            two_level_request(ScheduleKind.FLAT_PI, TAU_PI, 0.0, steps=100), refinements=3
        )
        assert max(err for _, err in report.rows) < 1e-12

    def test_expm_midpoint_is_second_order(self):
        report = convergence_probe(two_level_request(steps=4000), refinements=4)
        assert 1.5 <= report.order <= 2.5

    def test_rk4_is_fourth_order(self):
        report = convergence_probe(
            two_level_request(steps=4000, method=Method.RK4), refinements=4
        )
        assert 3.5 <= report.order <= 4.5

    def test_rejects_too_few_refinements(self):
        with pytest.raises(ValueError):
            convergence_probe(two_level_request(), refinements=2)


class TestTrajectoryCsv:
    def test_columns_and_rows(self, tmp_path):
        result = evolve(toy_lambda_request(steps=50, store_trajectory=True))
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,re_1,im_1,re_2,im_2,re_3,im_3,norm_sq,pop_1,pop_2,pop_3"
        assert len(lines) == 52

    def test_bytes_match_per_value_rendering(self, tmp_path):
        # more rows than one formatting block
        result = evolve(toy_lambda_request(steps=propagator._CSV_ROWS + 10, store_trajectory=True))
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(result, path)
        times, states = result.trajectory
        lines = []
        for t, psi in zip(times, states):
            pops = np.abs(psi) ** 2
            vals = [t]
            for amp in psi:
                vals += [amp.real, amp.imag]
            vals += [float(np.sum(pops))] + list(pops)
            lines.append(",".join(format(x, ".15e") for x in vals) + "\n")
        body = path.read_bytes().split(b"\n", 1)[1]
        assert body == "".join(lines).encode()

    def test_requires_stored_trajectory(self, tmp_path):
        result = evolve(toy_lambda_request(steps=50))
        with pytest.raises(ValueError):
            write_trajectory_csv(result, tmp_path / "x.csv")


def test_run_protocol_convenience(two_level_params):
    result = run_protocol(RunSpec(two_level_params, steps=1000), ScheduleKind.FLAT_PI, TAU_PI)
    assert result.populations[1] == pytest.approx(1.0, abs=1e-10)
