from __future__ import annotations

import functools
import math
import os
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from quadsim import (
    EvolveRequest,
    EvolveResult,
    IntegrationError,
    LambdaModel,
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
from quadsim.core_model import from_entry_rows

from conftest import DELTA_BIG, DELTA_M, GAMMA, OMEGA0, OMEGA_M, TAU_PI


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


def random_matrix(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a / np.linalg.norm(a)


def random_symmetric(seed: int) -> np.ndarray:
    # complex symmetric with a non-Hermitian diagonal, like -i H dt of every model
    a = random_matrix(3, seed)
    a = a + a.T
    return a * (4.0 / np.linalg.norm(a))


def lambda_steps(
    steps: int,
    duration: float,
    delta,
    omega_p,
    omega_s,
    gamma: float = GAMMA,
    omega_m: float = 0.0,
) -> np.ndarray:
    """-i H dt of the Lambda system, one per sample of the controls."""
    params = LambdaParams(
        omega_p0=OMEGA0, omega_s0=OMEGA0, delta_one_photon=DELTA_BIG, omega_m=omega_m, gamma=gamma
    )
    h = make_model(params).hamiltonian_batch(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (delta, omega_p, omega_s))
    )
    return -1j * (duration / steps) * h


def lambda_step() -> np.ndarray:
    # one -i H dt of the decaying Lambda system at 73 728 steps over 2.85 ms:
    # Delta*dt ~ 2.4e3 dominates the norm, the couplings are ~0.5
    return lambda_steps(73_728, 2.85e-3, 2 * math.pi * 3e3, 0.8 * OMEGA0, 0.6 * OMEGA0)[0]


def lambda_sweep(count: int) -> np.ndarray:
    # count Lambda steps at 73 728 steps over 2.85 ms across a sweep: the
    # detuning from -delta_m to delta_m, the pump rising as the Stokes falls
    ramp = np.linspace(0.0, 1.2, count)
    return lambda_steps(
        73_728, 2.85e-3, np.linspace(-DELTA_M, DELTA_M, count), ramp * OMEGA0, ramp[::-1] * OMEGA0,
        omega_m=OMEGA_M,
    )


def with_entry(a: np.ndarray, i: int, j: int, value: complex) -> np.ndarray:
    a = a.copy()
    a[i, j] = value
    return a


def one_ulp_smaller(z: complex) -> complex:
    return complex(z.real, np.nextafter(z.imag, 0.0))


def coupled_at_ratio(last: float) -> np.ndarray:
    # complex symmetric, coupling sum |a02| + |a12| = 1 and gap
    # |a22| - |a00| - |a11| - 2|a01| = last - 2: coupling ratio 2^-8 at last = 258
    return np.array(
        [[1.0, 0.25j, 0.75], [0.25j, -0.5j, -0.25j], [0.75, -0.25j, -1j * last]], dtype=complex
    )


def assert_block_boundary_invisible(batch: np.ndarray) -> None:
    together = expm_small(batch)
    head = expm_small(batch[: propagator._BLOCK])
    tail = expm_small(batch[propagator._BLOCK :])
    assert np.array_equal(together, np.concatenate([head, tail]))


class TestExpmSmall:
    def test_zero_matrix(self):
        assert np.array_equal(expm_small(np.zeros((3, 3))), np.eye(3))

    def test_pauli_x_half_rotation(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        result = expm_small(-1j * (math.pi / 2) * x)
        assert np.max(np.abs(result - (-1j) * x)) < 1e-12

    # the 3x3 cases keep their original ids.  The series of the Lambda step
    # needs ~e*||A|| terms and ||A||*log10(e) digits for its cancellation
    @pytest.mark.parametrize(
        "make, terms, dps",
        [pytest.param(functools.partial(random_matrix, 3, seed), 60, 50, id=str(seed)) for seed in range(5)]
        + [pytest.param(functools.partial(random_matrix, 2, seed), 60, 50, id=f"2x2-{seed}") for seed in range(5)]
        + [pytest.param(functools.partial(random_symmetric, seed), 60, 50, id=f"sym-{seed}") for seed in range(5)]
        + [pytest.param(lambda_step, 6_700, 1_090, id="sym-lambda")],
    )
    def test_matches_extended_precision_series(self, make, terms, dps):
        a = make()
        expected = mpmath_expm(a, terms=terms, dps=dps)
        got = expm_small(a)
        assert np.linalg.norm(got - expected) < 1e-12 * np.linalg.norm(expected)

    def test_symmetric_input_gives_bitwise_symmetric_output(self):
        batch = np.stack([random_symmetric(seed) for seed in range(5)] + [lambda_step()])
        got = expm_small(batch)
        assert np.array_equal(got, np.swapaxes(got, -1, -2))

    def test_one_ulp_from_symmetric_takes_full_layout(self, monkeypatch):
        a = random_symmetric(0)
        b = a.copy()
        b[0, 1] = complex(np.nextafter(a[0, 1].real, np.inf), a[0, 1].imag)
        chosen = []
        layout = propagator._layout

        def spy(n, symmetric):
            chosen.append(symmetric)
            return layout(n, symmetric)

        monkeypatch.setattr(propagator, "_layout", spy)
        symmetric, full = expm_small(a), expm_small(b)
        assert chosen == [True, False]
        assert np.linalg.norm(full - symmetric) <= 1e-12 * np.linalg.norm(symmetric)

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
        assert_block_boundary_invisible(batch)

    def test_block_boundary_is_bitwise_invisible_on_symmetric_layout(self):
        rng = np.random.default_rng(3)
        n = propagator._BLOCK + 3
        batch = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
        batch = batch + np.swapaxes(batch, 1, 2)
        batch *= 7.0 / np.linalg.norm(batch, axis=(-2, -1))[:, None, None]
        assert_block_boundary_invisible(batch)

    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "full"])
    def test_entry_major_storage_gives_bitwise_equal_result(self, symmetric):
        rng = np.random.default_rng(4)
        batch = rng.normal(size=(50, 3, 3)) + 1j * rng.normal(size=(50, 3, 3))
        if symmetric:
            batch = np.concatenate([batch + np.swapaxes(batch, 1, 2), [lambda_step()]])
        entry_major = from_entry_rows(np.ascontiguousarray(np.moveaxis(batch, 0, -1)))
        assert np.array_equal(entry_major, batch)
        assert np.array_equal(expm_small(entry_major), expm_small(batch))

    def test_symmetric_square_matches_product(self):
        # random symmetric matrices, Lambda steps at every scale from 2.4e3
        # down to the Taylor range, and the exponentials of those, which are
        # the matrices the squarings take
        steps = lambda_step() * 2.0 ** -np.arange(13.0)[:, None, None]
        full = np.concatenate(
            [[random_symmetric(seed) for seed in range(20)], steps, expm_small(steps)]
        )
        layout = propagator._layout(3, True)
        x = np.moveaxis(full, 0, -1).reshape(9, -1)[layout.source]
        square, product = propagator._square(x, layout), propagator._mul(x, x, layout)
        # the diagonal adds the same products in the same order
        assert np.array_equal(square[layout.diag], product[layout.diag])
        diff = (square - product)[layout.expand]
        scale = np.linalg.norm(full, axis=(1, 2)) ** 2
        assert np.all(np.linalg.norm(diff, axis=0) <= 1e-15 * scale)

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


def kernels_taken(monkeypatch, a: np.ndarray) -> tuple[list, np.ndarray]:
    """The 3x3 kernels expm_small runs on `a`, in call order, and its result."""
    taken = []
    for name in ("_expm_decoupled", "_expm_scaled_taylor"):

        def spy(*args, kernel=getattr(propagator, name), name=name):
            taken.append(name)
            return kernel(*args)

        monkeypatch.setattr(propagator, name, spy)
    return taken, expm_small(a)


def series_size(a: np.ndarray) -> tuple[int, int]:
    # terms and digits for mpmath_expm: the series needs ~e*||A|| terms, and
    # its terms peak near e^||A|| before they cancel to exp(A)
    norm = float(np.linalg.norm(a))
    return int(2.8 * norm) + 60, int(0.45 * norm) + 50


class TestDecoupledPath:
    """The exact block-decoupled kernel for complex-symmetric 3x3 batches
    with a dominant last diagonal entry, as every Lambda step has."""

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(
                lambda: lambda_steps(73_728, 2.85e-3, DELTA_M, 0.8 * OMEGA0, 0.6 * OMEGA0, 0.0, OMEGA_M)[0],
                id="73728-steps",
            ),
            pytest.param(
                lambda: lambda_steps(131_072, 2.85e-3, -DELTA_M, 1.2 * OMEGA0, 0.3 * OMEGA0, 0.0, OMEGA_M)[0],
                id="131072-steps",
            ),
            pytest.param(
                lambda: lambda_steps(500_000, 2.85e-3, DELTA_M, 0.6 * OMEGA0, 0.8 * OMEGA0, 0.0)[0],
                id="500000-steps",
            ),
            pytest.param(
                lambda: lambda_steps(1_000_000, 21.12e-3, -DELTA_M, OMEGA0, 0.5 * OMEGA0, 0.0)[0],
                id="1e6-steps-21.12ms",
            ),
            # dark and bright state split only by the light shift: s -> 0 in exp(R)
            pytest.param(
                lambda: lambda_steps(131_072, 2.85e-3, 0.0, OMEGA0, OMEGA0, 0.0)[0], id="dark-bright"
            ),
            pytest.param(
                lambda: lambda_steps(131_072, 2.85e-3, DELTA_M, 0.8 * OMEGA0, 0.6 * OMEGA0, GAMMA, OMEGA_M)[0],
                id="decay",
            ),
            pytest.param(functools.partial(coupled_at_ratio, 258.0), id="ratio-2^-8"),
            pytest.param(lambda: lambda_step() * 2.0**-12, id="last-entry-below-1"),
        ],
    )
    def test_matches_extended_precision_series(self, monkeypatch, make):
        a = make()
        taken, got = kernels_taken(monkeypatch, a)
        assert taken == ["_expm_decoupled"]
        expected = mpmath_expm(a, *series_size(a))
        assert np.linalg.norm(got - expected) < 1e-12 * np.linalg.norm(expected)

    def test_output_is_bitwise_symmetric(self, monkeypatch):
        taken, got = kernels_taken(monkeypatch, lambda_sweep(50))
        assert taken == ["_expm_decoupled"]
        assert np.array_equal(got, np.swapaxes(got, -1, -2))

    def test_block_boundary_is_bitwise_invisible(self, monkeypatch):
        batch = lambda_sweep(propagator._BLOCK + 3)
        taken, _ = kernels_taken(monkeypatch, batch)
        assert taken == ["_expm_decoupled"]
        assert_block_boundary_invisible(batch)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: np.zeros((3, 3)), id="zero"),
            pytest.param(lambda: with_entry(lambda_step(), 2, 2, 0.0), id="a22-zero"),
            pytest.param(
                lambda: with_entry(lambda_step(), 0, 2, one_ulp_smaller(lambda_step()[0, 2])),
                id="one-ulp-asymmetric",
            ),
            # dominant, but det(lambda I - B) ~ 1e-400 underflows
            pytest.param(lambda: np.diag([0.0, 0.0, 1e-200]), id="gap-below-2^-500"),
            # past the 2^500 guard on det(lambda I - B); the squarings overflow
            pytest.param(
                lambda: np.diag([0.0, 0.0, -1j * 2.0**501]),
                id="last-entry-above-2^500",
                marks=pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid"),
            ),
            # the last diagonal entry one ulp short of a coupling ratio of 2^-8
            pytest.param(
                lambda: np.concatenate([lambda_sweep(4), [coupled_at_ratio(np.nextafter(258.0, 0.0))]]),
                id="one-matrix-ineligible",
            ),
        ],
    )
    def test_ineligible_batches_take_taylor_kernel(self, monkeypatch, make):
        taken, _ = kernels_taken(monkeypatch, make())
        assert taken == ["_expm_scaled_taylor"]


@pytest.mark.parametrize("dim", [2, 3])
def test_unitarize_block_boundary_is_bitwise_invisible(dim):
    u = random_maps(dim, propagator._BLOCK + 3, unitary=False, seed=dim)
    together = propagator._unitarize(u)
    head = propagator._unitarize(u[: propagator._BLOCK])
    tail = propagator._unitarize(u[propagator._BLOCK :])
    assert np.array_equal(together, np.concatenate([head, tail]))


def sequential_states(u: np.ndarray, psi: np.ndarray) -> np.ndarray:
    # oracle: one step map at a time, in order
    states = []
    for step in u:
        psi = step @ psi
        states.append(psi)
    return np.array(states)


def random_maps(dim: int, count: int, unitary: bool, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    q = np.linalg.qr(z)[0]
    # non-unitary: columns scaled by 0.98 to 1.02, so norms neither blow up
    # nor vanish over 2049 maps
    return q if unitary else q * rng.uniform(0.98, 1.02, size=(count, 1, dim))


class TestChainApply:
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 2049])
    @pytest.mark.parametrize("unitary", [True, False], ids=["unitary", "non-unitary"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_sequential_loop(self, dim, unitary, count):
        u = random_maps(dim, count, unitary, seed=count)
        psi = np.arange(1, dim + 1) * (1.0 - 0.5j)
        expected = sequential_states(u, psi)
        every = propagator._chain_apply(u, psi, every=True)
        assert every.shape == (count, dim)
        err = np.linalg.norm(every - expected, axis=1)
        assert np.all(err <= 1e-13 * np.linalg.norm(expected, axis=1))
        assert np.array_equal(propagator._chain_apply(u, psi), every[-1:])

    def test_single_map_takes_no_product(self, monkeypatch):
        u = random_maps(3, 1, False, seed=0)
        psi = np.array([1.0, 0.5j, -0.25])

        def no_product(*args):
            raise AssertionError("a single map needs no pairwise product")

        monkeypatch.setattr(propagator, "_mul", no_product)
        for every in (False, True):
            assert np.array_equal(propagator._chain_apply(u, psi, every), [u[0] @ psi])


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


@pytest.mark.parametrize("steps", [propagator._CHUNK + 1, 4099], ids=["chunk+1", "odd"])
@pytest.mark.parametrize(
    "params, duration",
    [
        ("two_level_params", 5.83 * TAU_PI),
        ("lambda_params_no_decay", 2.85e-3),
        ("lambda_params", 2.85e-3),
    ],
    ids=["2x2", "lambda", "lambda-decay"],
)
def test_trajectory_leaves_final_state_unchanged(request, params, duration, steps):
    # chunk+1 ends on a chunk of one map
    run = RunSpec(request.getfixturevalue(params), delta_m=DELTA_M, steps=steps)
    plain = run_protocol(run, ScheduleKind.SIQUAD, duration)
    traced = run_protocol(run, ScheduleKind.SIQUAD, duration, store_trajectory=True)
    assert np.array_equal(traced.final.amplitudes, plain.final.amplitudes)
    assert np.array_equal(traced.trajectory[1][-1], plain.final.amplitudes)


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


class AosLambdaModel(LambdaModel):
    """The Lambda Hamiltonian stored matrix by matrix, (n, 3, 3): the
    reference the entry-row build must match bit for bit."""

    def hamiltonian_batch(self, delta, omega_p, omega_s):
        n = delta.shape[0]
        p = self.params
        h = np.zeros((n, 3, 3), dtype=complex)
        h[:, 0, 0] = delta
        h[:, 0, 1] = 0.5 * p.omega_m
        h[:, 1, 0] = 0.5 * p.omega_m
        h[:, 0, 2] = 0.5 * omega_p
        h[:, 2, 0] = 0.5 * omega_p
        h[:, 1, 2] = 0.5 * omega_s
        h[:, 2, 1] = 0.5 * omega_s
        h[:, 2, 2] = p.delta_one_photon - 1j * p.gamma
        return h


@pytest.mark.parametrize("params", ["lambda_params", "lambda_params_no_decay"])
def test_lambda_evolve_independent_of_hamiltonian_layout(request, params):
    params = replace(request.getfixturevalue(params), omega_m=OMEGA_M)
    samples = [np.linspace(-DELTA_M, DELTA_M, 7), np.full(7, OMEGA0), np.full(7, 0.5 * OMEGA0)]
    built = make_model(params).hamiltonian_batch(*samples)
    reference = AosLambdaModel(params).hamiltonian_batch(*samples)
    assert np.array_equal(built, reference) and built.strides != reference.strides
    req = EvolveRequest(
        model=make_model(params),
        schedule=make_schedule(params, ScheduleKind.SIQUAD, 2.85e-3, delta_m=DELTA_M),
        initial=QuantumState.basis(3, 0),
        steps=propagator._CHUNK + 5,
        store_trajectory=True,
    )
    got = evolve(req)
    expected = evolve(replace(req, model=AosLambdaModel(params)))
    assert np.array_equal(got.final.amplitudes, expected.final.amplitudes)
    assert np.array_equal(got.trajectory[1], expected.trajectory[1])


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


def per_value_rows(times, states) -> bytes:
    """Trajectory CSV rows with each value rendered on its own by format()."""
    lines = []
    for t, psi in zip(times, states):
        pops = np.abs(psi) ** 2
        vals = [t] + [v for amp in psi for v in (amp.real, amp.imag)]
        vals += [float(np.sum(pops))] + list(pops)
        lines.append(",".join(format(x, ".15e") for x in vals) + "\n")
    return "".join(lines).encode()


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

    def test_two_level_bytes(self, tmp_path):
        result = evolve(two_level_request(steps=propagator._CSV_ROWS + 10, store_trajectory=True))
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(result, path)
        header = b"t_s,re_1,im_1,re_2,im_2,norm_sq,pop_1,pop_2\n"
        assert path.read_bytes() == header + per_value_rows(*result.trajectory)

    def test_fallback_values_keep_their_bytes(self, tmp_path):
        # -0.0, subnormals and an exact decimal tie (2^-24 has 17 significant
        # digits, the last a 5) are written by format() itself, among values
        # of the fast path
        times = np.array([0.0, 5e-324, 1e-6])
        states = np.array(
            [
                [complex(-0.0, 0.0), 2.0**-24, 0.5 + 0.5j],
                [complex(0.0, -0.0), complex(5e-324, -2.2e-308), 2113662973114085.5],
                [np.nextafter(1.0, 0.0), -(2.0**-24), complex(1e-300, -0.0)],
            ]
        )
        result = EvolveResult(
            final=QuantumState.basis(3, 0),
            final_norm_sq=1.0,
            populations=np.array([1.0, 0.0, 0.0]),
            trajectory=(times, states),
        )
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(result, path)
        body = path.read_bytes().split(b"\n", 1)[1]
        assert body == per_value_rows(times, states)
        assert body.startswith(b"0.000000000000000e+00,-0.000000000000000e+00,")

    def test_requires_stored_trajectory(self, tmp_path):
        result = evolve(toy_lambda_request(steps=50))
        with pytest.raises(ValueError):
            write_trajectory_csv(result, tmp_path / "x.csv")


def peak_in_chunks(run: RunSpec, **kwargs) -> float:
    """tracemalloc peak of a SIQUAD run_protocol (after one untraced warm-up),
    in units of one chunk of (chunk, 3, 3) complex step maps."""
    run_protocol(run, ScheduleKind.SIQUAD, 2.85e-3, **kwargs)
    tracemalloc.start()
    try:
        run_protocol(run, ScheduleKind.SIQUAD, 2.85e-3, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (propagator._CHUNK * 9 * np.dtype(complex).itemsize)


@pytest.mark.parametrize("steps", [propagator._CHUNK, 2 * propagator._CHUNK])
def test_lambda_chunk_peak_memory(lambda_params, steps):
    # one chunk of step maps is the unit: the step exponential holds its input
    # and output plus cache-sized blocks, and a packed copy of the whole chunk,
    # or the previous chunk's maps kept alive, would cross the bound
    run = RunSpec(lambda_params, delta_m=DELTA_M, steps=steps)
    assert peak_in_chunks(run) <= 2.6


def trajectory_csv_peak(rows: int) -> int:
    """tracemalloc peak in bytes of writing a random 3-level trajectory of
    `rows` rows (after one untraced write that builds the renderer's tables)."""
    rng = np.random.default_rng(3)
    states = rng.normal(size=(rows, 3)) + 1j * rng.normal(size=(rows, 3))
    result = EvolveResult(
        final=QuantumState.basis(3, 0),
        final_norm_sq=1.0,
        populations=np.array([1.0, 0.0, 0.0]),
        trajectory=(np.linspace(0.0, 2.85e-3, rows), states),
    )
    write_trajectory_csv(result, os.devnull)
    tracemalloc.start()
    try:
        write_trajectory_csv(result, os.devnull)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_trajectory_csv_peak_memory():
    # the writer renders one block of rows at a time, so its peak is a
    # fraction of the states and does not grow with the row count; rendering
    # the whole table at once would need 24 bytes per value, 35 MB here
    rows = 2 * propagator._CHUNK + 1
    peak = trajectory_csv_peak(rows)
    assert peak <= 1.5 * rows * 3 * np.dtype(complex).itemsize
    assert peak <= 1.05 * trajectory_csv_peak(rows // 2 + 1)


def test_lambda_trajectory_peak_memory(lambda_params_no_decay):
    # two chunks: the stored trajectory (2/3 of a chunk of maps), one chunk's
    # exponential and polish, and the product tree's levels; the previous
    # chunk's maps or states kept alive would cross the bound
    run = RunSpec(lambda_params_no_decay, delta_m=DELTA_M, steps=2 * propagator._CHUNK)
    assert peak_in_chunks(run, store_trajectory=True) <= 4.0


def test_run_protocol_convenience(two_level_params):
    result = run_protocol(RunSpec(two_level_params, steps=1000), ScheduleKind.FLAT_PI, TAU_PI)
    assert result.populations[1] == pytest.approx(1.0, abs=1e-10)
