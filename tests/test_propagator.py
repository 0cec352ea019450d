from __future__ import annotations

import contextlib
import functools
import math
import os
import re
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from quadsim import (
    Axis,
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
    SweepSpec,
    convergence_probe,
    evolve,
    expm_small,
    make_model,
    make_schedule,
    run_protocol,
    run_sweep,
    write_trajectory_csv,
)
from quadsim import propagator
from quadsim.config import load_config, preset_names
from quadsim.core_model import from_entry_rows

from conftest import DELTA_BIG, DELTA_M, GAMMA, OMEGA0, OMEGA_M, TAU_PI

EPS = np.finfo(float).eps


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


def lambda_sweep(count: int, steps: int = 73_728, gamma: float = GAMMA) -> np.ndarray:
    # count Lambda steps at `steps` steps over 2.85 ms across a sweep: the
    # detuning from -delta_m to delta_m, the pump rising as the Stokes falls
    ramp = np.linspace(0.0, 1.2, count)
    return lambda_steps(
        steps, 2.85e-3, np.linspace(-DELTA_M, DELTA_M, count), ramp * OMEGA0, ramp[::-1] * OMEGA0,
        gamma, OMEGA_M,
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
        # the exact kernels: the 2x2 closed form and the block-decoupled 3x3
        two = np.stack([random_symmetric(seed)[:2, :2] for seed in range(5)])
        for batch in (two, lambda_step()):
            got = expm_small(batch)
            assert np.array_equal(got, np.swapaxes(got, -1, -2))

    def test_taylor_output_is_symmetric_to_rounding(self, monkeypatch):
        # the Taylor kernel multiplies all nine entries, so a symmetric
        # input's exponential is symmetric only to rounding
        taken, got = kernels_taken(monkeypatch, np.stack([random_symmetric(seed) for seed in range(200)]))
        assert taken == ["_expm_scaled_taylor"]
        asymmetry = np.linalg.norm(got - np.swapaxes(got, -1, -2), axis=(-2, -1))
        assert np.all(asymmetry <= 4 * EPS * np.linalg.norm(got, axis=(-2, -1)))

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
        # symmetric input, which the Taylor kernel stores in the same full
        # entry-row layout as any other
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


def spy_kernels(monkeypatch) -> list:
    """The names of the 3x3 kernels expm_small runs from now on, in call
    order; the kernels themselves still run."""
    taken = []
    for name in ("_expm_decoupled", "_expm_scaled_taylor"):

        def spy(*args, kernel=getattr(propagator, name), name=name):
            taken.append(name)
            return kernel(*args)

        monkeypatch.setattr(propagator, name, spy)
    return taken


def kernels_taken(monkeypatch, a: np.ndarray) -> tuple[list, np.ndarray]:
    """The 3x3 kernels expm_small runs on `a`, in call order, and its result."""
    taken = spy_kernels(monkeypatch)
    return taken, expm_small(a)


def series_size(a: np.ndarray) -> tuple[int, int]:
    # terms and digits for mpmath_expm: the series needs ~e*||A|| terms, and
    # its terms peak near e^||A|| before they cancel to exp(A)
    norm = float(np.linalg.norm(a))
    return int(2.8 * norm) + 60, int(0.45 * norm) + 50


def spy_2x2(monkeypatch) -> list:
    """How expm_small forms each 2x2 batch's e^m cosh(s) and e^m sinh(s)/s
    from now on, in call order: ("series", degree) or ("closed", None)."""
    taken = []
    series, closed = propagator._cosh_sinhc_series, propagator._cosh_sinhc_closed

    def spy_series(m, q, degree):
        taken.append(("series", degree))
        return series(m, q, degree)

    def spy_closed(m, q):
        taken.append(("closed", None))
        return closed(m, q)

    monkeypatch.setattr(propagator, "_cosh_sinhc_series", spy_series)
    monkeypatch.setattr(propagator, "_cosh_sinhc_closed", spy_closed)
    return taken


def two_by_two(kind: str, q: float, seed: int) -> np.ndarray:
    """A 2x2 matrix whose q = d^2 + a01 a10 has modulus q: skew-Hermitian
    (-i H, H Hermitian), general complex, or decaying (-i H, H real
    symmetric, with a damped second level)."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    if kind == "skew":
        a = -0.5j * (z + z.conj().T)
    elif kind == "general":
        a = z
    else:
        a = -0.5j * (z.real + z.real.T) - np.diag([0.0, abs(rng.normal())])
    m = 0.5 * (a[0, 0] + a[1, 1])
    n = a - m * np.eye(2)
    return m * np.eye(2) + n * math.sqrt(q / abs(n[0, 0] ** 2 + n[0, 1] * n[1, 0]))


class TestSeries2x2:
    """cosh(s) and sinh(s)/s as power series in q = s^2, truncated at a
    remainder of u/4, for batches whose largest |q| is at most
    _SERIES_MAX_Q; the closed form for the rest."""

    @pytest.mark.parametrize("q", [0.0, 1e-12, 4e-8, 1.5e-4, 0.1, 1.0, 2.5, 3.99, 4.01, 6.0])
    @pytest.mark.parametrize("kind", ["skew", "general", "decay"])
    def test_matches_mpmath(self, monkeypatch, kind, q):
        taken = spy_2x2(monkeypatch)
        for seed in range(4):
            a = two_by_two(kind, q, seed)
            expected = mpmath_expm(a)
            assert np.linalg.norm(expm_small(a) - expected) <= 4 * EPS * np.linalg.norm(expected)
        path = "series" if q <= propagator._SERIES_MAX_Q else "closed"
        assert {name for name, _ in taken} == {path}

    def test_bound_picks_the_path(self, monkeypatch):
        bound = propagator._SERIES_MAX_Q
        below = np.stack([two_by_two("general", 0.99 * bound, seed) for seed in range(3)])
        above = np.concatenate([below, [two_by_two("general", 1.01 * bound, 3)]])
        taken = spy_2x2(monkeypatch)
        expm_small(below)
        expm_small(above)
        assert taken == [("series", 11), ("closed", None)]

    def test_large_real_part_of_m_keeps_closed_form(self, monkeypatch):
        # e^m alone would overflow past Re(m) = 709.78, so the series is not
        # taken above 709, whatever q is
        n = two_by_two("skew", 1e-4, 0)
        taken = spy_2x2(monkeypatch)
        got = expm_small(np.stack([n, n + 709.5 * np.eye(2)]))
        assert taken == [("closed", None)]
        expected = mpmath_expm(n)
        scaled = got[1] * np.exp(-709.5)
        assert np.linalg.norm(scaled - expected) <= 4 * EPS * np.linalg.norm(expected)

    @pytest.mark.parametrize(
        "a",
        [
            # every entry is +-e^710/sqrt 2 = 1.58e308, while the coefficient
            # e^m sinh(s)/s = 0.9 e^710 overflows
            710.0 * np.eye(2) + (np.pi / 4) * np.array([[0.0, 1.0], [-1.0, 0.0]]),
            # the entries are e^709.5 (cosh 0.5, sinh 0.5), while e^(m+s) =
            # e^710 overflows
            709.5 * np.eye(2) + 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]]),
        ],
        ids=["coefficient-overflows", "exp-overflows"],
    )
    def test_closed_form_near_overflow_stays_finite(self, monkeypatch, a):
        taken = spy_2x2(monkeypatch)
        got = expm_small(a)
        assert taken == [("closed", None)]
        with mpmath.workdps(50):
            e = mpmath.expm(mpmath.matrix(a.tolist()))
            expected = np.array([[complex(e[i, j]) for j in range(2)] for i in range(2)])
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - expected)) <= 4 * EPS * np.max(np.abs(expected))

    def test_scaling_keeps_finite_coefficients_bitwise(self, monkeypatch):
        # Re(m+s) between 700 and 709.78: e^(m+s) is finite, and scaling it
        # and the entries by powers of two leaves every bit as it was
        a = np.stack(
            [
                two_by_two(kind, 6.0, seed) + 704.0 * np.eye(2)
                for kind in ("skew", "general", "decay")
                for seed in range(4)
            ]
        )
        got = expm_small(a)
        monkeypatch.setattr(propagator, "_CLOSED_SCALE_RE", math.inf)
        assert np.array_equal(expm_small(a), got)

    def test_mixed_batch_takes_degree_of_largest_q(self, monkeypatch):
        small = [two_by_two("skew", 4e-8, seed) for seed in range(40)]
        large = two_by_two("skew", 1.0, 40)
        taken = spy_2x2(monkeypatch)
        expm_small(np.stack(small))
        expm_small(large)
        mixed = expm_small(np.stack(small[:20] + [large] + small[20:]))
        assert taken == [("series", 2), ("series", 9), ("series", 9)]
        expected = mpmath_expm(small[0])
        assert np.linalg.norm(mixed[0] - expected) <= 4 * EPS * np.linalg.norm(expected)

    @pytest.mark.parametrize(
        "q, degree", [(0.0, 0), (1e-300, 0), (4e-8, 2), (1.5e-4, 3), (1.0, 9), (4.0, 11)]
    )
    def test_degree_rule(self, q, degree):
        assert propagator._series_degree(q) == degree


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
        "make, refused",
        [
            pytest.param(lambda: np.zeros((3, 3)), False, id="zero"),
            pytest.param(lambda: with_entry(lambda_step(), 2, 2, 0.0), False, id="a22-zero"),
            pytest.param(
                lambda: with_entry(lambda_step(), 0, 2, one_ulp_smaller(lambda_step()[0, 2])),
                False,
                id="one-ulp-asymmetric",
            ),
            # dominant, but det(lambda I - B) ~ 1e-400 underflows
            pytest.param(lambda: np.diag([0.0, 0.0, 1e-200]), False, id="gap-below-2^-500"),
            # past the 2^500 guard on det(lambda I - B), and past the Taylor
            # kernel's norm bound too, which refuses it
            pytest.param(lambda: np.diag([0.0, 0.0, -1j * 2.0**501]), True, id="last-entry-above-2^500"),
            # the last diagonal entry one ulp short of a coupling ratio of 2^-8
            pytest.param(
                lambda: np.concatenate([lambda_sweep(4), [coupled_at_ratio(np.nextafter(258.0, 0.0))]]),
                False,
                id="one-matrix-ineligible",
            ),
        ],
    )
    def test_ineligible_batches_take_taylor_kernel(self, monkeypatch, make, refused):
        taken = spy_kernels(monkeypatch)
        with pytest.raises(ValueError, match="Frobenius norm") if refused else contextlib.nullcontext():
            expm_small(make())
        assert taken == ["_expm_scaled_taylor"]


SWAP = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)


class TestTaylorNormBound:
    """The Taylor kernel's error grows as ~1e-16 ||A||, and far past its
    bound the squarings returned zeros (the swap at 2^100 to 2^500), NaN
    (diag(0, 0, -i 2^501)) or raised OverflowError (2^600).  It refuses any
    batch past the bound instead."""

    @pytest.mark.parametrize(
        "a",
        [
            pytest.param(-1j * 2.0**100 * SWAP, id="swap-2^100"),
            pytest.param(-1j * 2.0**500 * SWAP, id="swap-2^500"),
            pytest.param(np.diag([0.0, 0.0, -1j * 2.0**501]), id="diag-2^501"),
            pytest.param(-1j * 2.0**600 * SWAP, id="swap-2^600"),
            pytest.param(-1j * 2.0**20 * SWAP, id="swap-2^20"),
        ],
    )
    def test_refuses_batch_past_bound(self, monkeypatch, a):
        taken = spy_kernels(monkeypatch)
        norm = math.hypot(*np.abs(a.ravel()))
        assert norm > propagator._TAYLOR_MAX_NORM
        with pytest.raises(ValueError, match=re.escape(f"largest Frobenius norm {norm:.6g} exceeds")):
            expm_small(np.stack([np.zeros((3, 3)), a]))
        assert taken == ["_expm_scaled_taylor"]

    @pytest.mark.parametrize("p", [13, 19])
    def test_accepted_range_error_grows_with_norm(self, p):
        # exp(-i x S) = cos(x) I - i sin(x) S for the swap S, as S^2 = I
        x = 2.0**p
        a = -1j * x * SWAP
        assert np.linalg.norm(a) <= propagator._TAYLOR_MAX_NORM
        expected = math.cos(x) * np.eye(3) - 1j * math.sin(x) * SWAP
        error = np.linalg.norm(expm_small(a) - expected) / np.linalg.norm(expected)
        assert error <= 2e-16 * np.linalg.norm(a)


def polish_calls(monkeypatch) -> list:
    """The shapes of the batches propagator._unitarize polishes, in call
    order; the polish itself still runs."""
    calls = []

    def spy(u, unitarize=propagator._unitarize):
        calls.append(u.shape)
        return unitarize(u)

    monkeypatch.setattr(propagator, "_unitarize", spy)
    return calls


def unitarity_defect(u: np.ndarray) -> float:
    # max over the batch of the Frobenius norm of U^H U - I
    gram = np.conj(np.swapaxes(u, -1, -2)) @ u
    return float(np.max(np.linalg.norm(gram - np.eye(u.shape[-1]), axis=(-2, -1))))


def hamiltonian(req: EvolveRequest, t: np.ndarray) -> np.ndarray:
    """H of req's run at instants t, negated for a time-reversed run."""
    h = req.model.hamiltonian_batch(*propagator._controls(req, t))
    return -h if req.time_reversed else h


def two_level_steps(kind, duration: float, steps: int, scale: float) -> np.ndarray:
    # -i H dt of a two-level run at every step midpoint, couplings scaled
    req = two_level_request(kind, duration, steps=steps, amplitude_scale=scale)
    dt = duration / steps
    return -1j * dt * hamiltonian(req, (np.arange(steps) + 0.5) * dt)


def skew_hermitian_batch() -> np.ndarray:
    # -i H dt for random real symmetric H, norms up to 3: a few squarings on
    # the Taylor kernel, and no dominant last diagonal entry
    rng = np.random.default_rng(5)
    h = rng.normal(size=(50, 3, 3))
    h = h + np.swapaxes(h, 1, 2)
    return -1j * h * (3.0 / np.max(np.linalg.norm(h, axis=(1, 2))))


class TestUnitarityPolish:
    """One Newton step toward the polar factor (_unitarize) follows the
    Taylor kernel, whose maps are accurate to about 1e-12, on exactly
    skew-Hermitian input.  The 2x2 closed form and the block-decoupled kernel
    are unitary to rounding without it."""

    @pytest.mark.parametrize("steps", [73_728, 131_072])
    def test_decoupled_maps_are_unitary_unpolished(self, monkeypatch, steps):
        calls = polish_calls(monkeypatch)
        taken, u = kernels_taken(monkeypatch, lambda_sweep(5000, steps, gamma=0.0))
        assert taken == ["_expm_decoupled"] and calls == []
        assert unitarity_defect(u) <= 8 * EPS

    @pytest.mark.parametrize(
        "kind, duration",
        [
            (ScheduleKind.FLAT_PI, TAU_PI),
            (ScheduleKind.FAQUAD, 6.33 * TAU_PI),
            (ScheduleKind.SIQUAD, 5.83 * TAU_PI),
        ],
        ids=["flat_pi", "faquad", "siquad"],
    )
    def test_two_level_maps_are_unitary_unpolished(self, monkeypatch, kind, duration):
        # the fig2b_amplitude protocols at 50 000 steps, couplings scaled by
        # the ends and the middle of its sweep
        calls = polish_calls(monkeypatch)
        a = np.concatenate([two_level_steps(kind, duration, 50_000, s) for s in (0.9, 1.0, 1.1)])
        assert unitarity_defect(expm_small(a)) <= 8 * EPS
        assert calls == []

    def test_taylor_kernel_polishes_skew_hermitian_input(self, monkeypatch):
        a = skew_hermitian_batch()
        unitarize = propagator._unitarize
        with monkeypatch.context() as m:
            m.setattr(propagator, "_unitarize", lambda u: u)
            unpolished = expm_small(a)
        calls = polish_calls(monkeypatch)
        taken, got = kernels_taken(monkeypatch, a)
        assert taken == ["_expm_scaled_taylor"] and calls == [(50, 3, 3)]
        assert np.array_equal(got, unitarize(unpolished))

    @pytest.mark.parametrize(
        "entry, value",
        [((2, 2), -0.05), ((0, 1), complex(5e-324, 0.0))],
        ids=["decay", "one-ulp-from-skew-hermitian"],
    )
    def test_other_taylor_input_is_not_polished(self, monkeypatch, entry, value):
        # a decay -gamma*dt on the diagonal, as for gamma > 0, or one entry
        # one ulp off: the Taylor kernel's maps come back as they are
        a = skew_hermitian_batch()
        a[(0,) + entry] += value
        rows = np.ascontiguousarray(np.moveaxis(a, 0, -1)).reshape(9, -1)
        expected = from_entry_rows(propagator._expm_scaled_taylor(rows).reshape(3, 3, -1))
        calls = polish_calls(monkeypatch)
        taken, got = kernels_taken(monkeypatch, a)
        assert taken == ["_expm_scaled_taylor"] and calls == []
        assert np.array_equal(got, expected)

    def test_taylor_path_lambda_run_keeps_norm(self, monkeypatch, lambda_params_no_decay):
        # a gamma = 0 Lambda run forced onto the Taylor kernel.  Unpolished,
        # its maps' unitarity defects add up to |psi|^2 = 1 + 3.5e-8 at
        # 20 000 steps, and evolve raises
        monkeypatch.setattr(propagator, "_last_entry_dominates", lambda rows: False)
        calls = polish_calls(monkeypatch)
        run = RunSpec(lambda_params_no_decay, delta_m=DELTA_M, steps=20_000)
        result = run_protocol(run, ScheduleKind.SIQUAD, 2.85e-3)
        block = propagator._BLOCK
        assert calls == [(min(block, 20_000 - lo), 3, 3) for lo in range(0, 20_000, block)]
        assert result.final_norm_sq <= 1.0 + 1e-9

    @pytest.mark.parametrize(
        "params, duration",
        [("two_level_params", 5.83 * TAU_PI), ("lambda_params_no_decay", 2.85e-3)],
        ids=["2x2", "lambda"],
    )
    def test_model_runs_take_no_polish(self, monkeypatch, request, params, duration):
        calls = polish_calls(monkeypatch)
        run = RunSpec(request.getfixturevalue(params), delta_m=DELTA_M, steps=propagator._CHUNK + 1)
        result = run_protocol(run, ScheduleKind.SIQUAD, duration)
        assert calls == []
        assert abs(result.final_norm_sq - 1.0) <= 1e-9


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


def sequential_rk4(req: EvolveRequest) -> np.ndarray:
    """Oracle: classical RK4 on the state vector, one step at a time, with
    -i H sampled at every half step; the initial state and the state after
    every step."""
    duration, steps = req.schedule.duration, req.steps
    dt = duration / steps
    a = -1j * hamiltonian(req, np.linspace(0.0, duration, 2 * steps + 1))
    psi = np.array(req.initial.amplitudes, dtype=complex)
    states = [psi]
    for j in range(steps):
        a0, am, a1 = a[2 * j], a[2 * j + 1], a[2 * j + 2]
        k1 = a0 @ psi
        k2 = am @ (psi + (0.5 * dt) * k1)
        k3 = am @ (psi + (0.5 * dt) * k2)
        k4 = a1 @ (psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
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
        out = np.empty((count + 1, dim), dtype=complex)
        every = propagator._chain_apply(u, psi, out)
        # written in place: psi to row 0, the state after map k to row k + 1
        assert every.shape == (count, dim) and np.shares_memory(every, out)
        assert np.array_equal(out[0], psi) and np.array_equal(out[1:], every)
        err = np.linalg.norm(every - expected, axis=1)
        assert np.all(err <= 1e-13 * np.linalg.norm(expected, axis=1))
        assert np.array_equal(propagator._chain_apply(u, psi), every[-1:])

    def test_single_map_takes_no_product(self, monkeypatch):
        u = random_maps(3, 1, False, seed=0)
        psi = np.array([1.0, 0.5j, -0.25])

        def no_product(*args):
            raise AssertionError("a single map needs no pairwise product")

        monkeypatch.setattr(propagator, "_mul", no_product)
        for out in (None, np.empty((2, 3), dtype=complex)):
            assert np.array_equal(propagator._chain_apply(u, psi, out), [u[0] @ psi])


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
    "params, duration, method",
    [
        ("two_level_params", 5.83 * TAU_PI, Method.PIECEWISE_EXPM),
        ("lambda_params_no_decay", 2.85e-3, Method.PIECEWISE_EXPM),
        ("lambda_params", 2.85e-3, Method.PIECEWISE_EXPM),
        ("two_level_params", 5.83 * TAU_PI, Method.RK4),
    ],
    ids=["2x2", "lambda", "lambda-decay", "2x2-rk4"],
)
def test_trajectory_leaves_final_state_unchanged(request, params, duration, method, steps):
    # chunk+1 ends on a chunk of one map.  RK4 diverges on the stiff Lambda
    # runs, so it runs the two-level case only
    run = RunSpec(request.getfixturevalue(params), delta_m=DELTA_M, steps=steps, method=method)
    plain = run_protocol(run, ScheduleKind.SIQUAD, duration)
    traced = run_protocol(run, ScheduleKind.SIQUAD, duration, store_trajectory=True)
    assert np.array_equal(traced.final.amplitudes, plain.final.amplitudes)
    assert np.array_equal(traced.trajectory[1][-1], plain.final.amplitudes)


def decay_params(gamma: float) -> LambdaParams:
    return LambdaParams(
        omega_p0=0.0, omega_s0=0.0, delta_one_photon=2 * math.pi * 1e6, gamma=gamma
    )


def toy_lambda_request(
    gamma=2 * math.pi * 0.3e6, steps=20000, protocol=ScheduleKind.FLAT_PI, **kwargs
):
    # small detunings so the dynamics is smooth at modest step counts; a
    # sweep protocol sweeps the two-photon detuning across +-1 MHz
    params = LambdaParams(
        omega_p0=2 * math.pi * 1e6,
        omega_s0=2 * math.pi * 1e6,
        delta_one_photon=2 * math.pi * 3e6,
        gamma=gamma,
    )
    model = make_model(params)
    schedule = make_schedule(params, protocol, 2e-6, delta_m=2 * math.pi * 1e6)
    return EvolveRequest(
        model=model,
        schedule=schedule,
        initial=QuantumState.basis(3, 0),
        steps=steps,
        **kwargs,
    )


def lambda_request(gamma: float, steps: int) -> EvolveRequest:
    # a SIQUAD run of the bundled Lambda scenario
    params = LambdaParams(
        omega_p0=OMEGA0, omega_s0=OMEGA0, delta_one_photon=DELTA_BIG, gamma=gamma
    )
    return EvolveRequest(
        model=make_model(params),
        schedule=make_schedule(params, ScheduleKind.SIQUAD, 2.85e-3, delta_m=DELTA_M),
        initial=QuantumState.basis(3, 0),
        steps=steps,
    )


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(functools.partial(two_level_request, steps=100_000), id="2x2-siquad"),
        pytest.param(
            functools.partial(
                toy_lambda_request, steps=propagator._CHUNK + 5, protocol=ScheduleKind.SIQUAD
            ),
            id="lambda-decay-chunk+5",
        ),
    ],
)
def test_rk4_matches_sequential_oracle(make):
    # every stored state of the RK4 step matrices through the product tree
    # against the per-step RK4 loop on the state vector; the Lambda run
    # crosses a chunk boundary
    req = make(method=Method.RK4, store_trajectory=True)
    _, states = evolve(req).trajectory
    expected = sequential_rk4(req)
    assert states.shape == expected.shape
    assert np.max(np.abs(states - expected)) <= 1e-11


@pytest.mark.parametrize(
    "length", [propagator._BLOCK + 3, propagator._CHUNK + 1], ids=["block+3", "chunk+1"]
)
@pytest.mark.parametrize(
    "make, kernels",
    [
        pytest.param(two_level_request, set(), id="2x2"),
        pytest.param(functools.partial(two_level_request, time_reversed=True), set(), id="2x2-reversed"),
        pytest.param(functools.partial(lambda_request, GAMMA), {"_expm_decoupled"}, id="lambda-decay"),
        pytest.param(functools.partial(lambda_request, 0.0), {"_expm_decoupled"}, id="lambda"),
        pytest.param(
            functools.partial(toy_lambda_request, protocol=ScheduleKind.SIQUAD),
            {"_expm_scaled_taylor"},
            id="lambda-taylor",
        ),
    ],
)
def test_step_maps_match_whole_chunk_exponential(monkeypatch, make, kernels, length):
    # a chunk that starts off step 0 and ends inside a block: the maps built
    # block by block match the exponential of the whole chunk's -i H dt,
    # bitwise for the 3x3 kernels.  numpy's SIMD loops round the tail of an
    # array differently, and the 2x2 series takes its degree from each
    # block's largest |q|, so a 2x2 map entry may move by an ulp or two
    lo = 5
    req = make(steps=lo + length + 7)
    dt = req.schedule.duration / req.steps
    mid = (np.arange(lo, lo + length) + 0.5) * dt
    expected = expm_small(-1j * dt * hamiltonian(req, mid))
    taken = spy_kernels(monkeypatch)
    got = propagator._step_maps(req, lo, lo + length)
    assert set(taken) == kernels
    # entry rows, which the product tree reads without a copy
    assert got.shape == expected.shape and np.moveaxis(got, 0, -1).flags.c_contiguous
    if req.model.dim == 3:
        assert np.array_equal(got, expected)
    else:
        assert np.all(np.abs(got - expected) <= 2 * np.spacing(np.abs(expected)))


@pytest.mark.parametrize("gamma", [0.0, 2 * math.pi * 0.3e6], ids=["no-decay", "decay"])
@pytest.mark.parametrize("protocol", [ScheduleKind.FLAT_PI, ScheduleKind.SIQUAD], ids=["flat_pi", "siquad"])
def test_taylor_path_lambda_run_matches_rk4(monkeypatch, protocol, gamma):
    # Delta = 3 Omega does not dominate the couplings, so every step takes
    # the Taylor kernel; the toy dynamics is slow enough for RK4
    req = toy_lambda_request(gamma, steps=200_000, protocol=protocol)
    taken = spy_kernels(monkeypatch)
    expm = evolve(req).populations
    assert taken and set(taken) == {"_expm_scaled_taylor"}
    rk4 = evolve(replace(req, steps=20_000, method=Method.RK4)).populations
    assert np.max(np.abs(expm - rk4)) <= 1e-9


def run_preset_windows(preset: str, steps: int | None = None) -> None:
    # the ends and middle of every window of `preset` at `steps` (the
    # preset's own count when None); a preset without durations runs only
    # its duration sweep
    config = load_config(preset)
    run = config.run if steps is None else replace(config.run, steps=steps)
    for window in (config.sweep.window, *config.compare):
        if window.axis is Axis.DURATION or run.durations:
            run_sweep(SweepSpec(run, replace(window, points=3)))


@pytest.mark.parametrize("preset", preset_names())
def test_presets_never_take_taylor_kernel(monkeypatch, preset):
    # the dominance test compares |a02| + |a12| with the gap, both scaled by
    # dt, so 2000 steps pick the same kernel as the preset's own count
    monkeypatch.delenv("QUAD_WORKERS", raising=False)
    taken = spy_kernels(monkeypatch)
    run_preset_windows(preset, steps=2000)
    lambda_preset = isinstance(load_config(preset).run.params, LambdaParams)
    assert set(taken) == ({"_expm_decoupled"} if lambda_preset else set())


@pytest.mark.parametrize(
    "preset, steps",
    [
        ("fig2a_time_scan", None),
        ("fig2b_amplitude", None),
        ("fig2c_detuning", None),
        ("fig3_gamma_on_short", 73_728),
        ("fig3_gamma_off_short", 131_072),
    ],
)
def test_preset_2x2_blocks_take_series(monkeypatch, preset, steps):
    # every two-level step block, and the R block of every Lambda step, at
    # the two-level presets' own counts and at the step counts perfbench
    # runs the Lambda presets with.  |q| shrinks as steps grow: the R
    # blocks' largest |q| is 38 at 2000 steps, 1.1 at 73 728 and 0.39 at
    # 131 072, so fewer steps would reach the closed form
    monkeypatch.delenv("QUAD_WORKERS", raising=False)
    taken = spy_2x2(monkeypatch)
    run_preset_windows(preset, steps)
    assert taken and {name for name, _ in taken} == {"series"}


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
            gamma = 1.0  # H is not Hermitian: time reversal is refused

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


def peak_in_chunks(run: RunSpec, duration: float = 2.85e-3, **kwargs) -> float:
    """tracemalloc peak of a SIQUAD run_protocol (after one untraced warm-up),
    in units of one chunk of (chunk, n, n) complex step maps."""
    run_protocol(run, ScheduleKind.SIQUAD, duration, **kwargs)
    tracemalloc.start()
    try:
        run_protocol(run, ScheduleKind.SIQUAD, duration, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = make_model(run.params).dim
    return peak / (propagator._CHUNK * n * n * np.dtype(complex).itemsize)


@pytest.mark.parametrize("steps", [propagator._CHUNK, 2 * propagator._CHUNK])
def test_lambda_chunk_peak_memory(lambda_params, steps):
    # one chunk of step maps is the unit: the step exponential holds its input
    # and output plus cache-sized blocks, and a copy of the whole chunk, or
    # the previous chunk's maps kept alive, would cross the bound
    run = RunSpec(lambda_params, delta_m=DELTA_M, steps=steps)
    assert peak_in_chunks(run) <= 2.6


@pytest.mark.parametrize("steps", [propagator._CHUNK, 2 * propagator._CHUNK])
def test_two_level_chunk_peak_memory(two_level_params, steps):
    # the same unit and bound for (chunk, 2, 2) maps: they are built block by
    # block into one chunk-sized array, so a chunk-sized Hamiltonian, -i H dt
    # or closed-form temporary beside them would cross the bound
    run = RunSpec(two_level_params, delta_m=DELTA_M, steps=steps)
    assert peak_in_chunks(run, 5.83 * TAU_PI) <= 2.6


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
