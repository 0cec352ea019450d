from __future__ import annotations

import contextlib
import functools
import math
import os
import re
import tracemalloc
import warnings
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
    TwoLevelModel,
    TwoLevelParams,
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
from quadsim.core_model import from_entry_rows, to_entry_rows

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
    block = propagator._block(batch.shape[-1])
    together = expm_small(batch)
    head = expm_small(batch[:block])
    tail = expm_small(batch[block:])
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
        n = propagator._block(3) + 3
        batch = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
        batch *= 7.0 / np.linalg.norm(batch, axis=(-2, -1))[:, None, None]
        assert_block_boundary_invisible(batch)

    def test_block_boundary_is_bitwise_invisible_on_symmetric_layout(self):
        # symmetric input, which the Taylor kernel stores in the same full
        # entry-row layout as any other
        rng = np.random.default_rng(3)
        n = propagator._block(3) + 3
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

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, complex(np.inf, 0.0)], ids=str)
    @pytest.mark.parametrize("i, j", [(i, j) for i in range(3) for j in range(3)])
    def test_rejects_non_finite_3x3_entry(self, i, j, value):
        # mirrored, so that the batch stays symmetric and reaches the
        # decoupled gate (all but NaN, which fails the symmetry test); the
        # finite check runs only on batches the gate refuses, and the gate
        # itself warns of no inf - inf
        batch = lambda_sweep(3)
        batch[1, i, j] = batch[1, j, i] = value
        assert_refused_without_warning(batch)

    @pytest.mark.parametrize("i", [0, 1])
    def test_rejects_infinite_diagonal_without_warning(self, i):
        # a00 or a11 and a22 infinite: |a22| - |a00| would be inf - inf
        batch = lambda_sweep(3)
        batch[1, i, i] = batch[1, 2, 2] = complex(0.0, -np.inf)
        assert_refused_without_warning(batch)

    @pytest.mark.parametrize(
        "entries",
        [[(0, 0)], [(1, 1)], [(0, 1)], [(0, 0), (1, 1)]],
        ids=["a00", "a11", "a01", "a00-a11"],
    )
    def test_refuses_huge_finite_entry_without_warning(self, entries):
        # finite entries near the largest float, mirrored: the gate bounds
        # them by |a22| before it forms the gap, which would overflow, so the
        # batch goes to the Taylor kernel, which refuses it by its norm
        batch = lambda_sweep(3)
        for i, j in entries:
            batch[1, i, j] = batch[1, j, i] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exceeds"):
                expm_small(batch)

    @pytest.mark.parametrize(
        "make, kernel",
        [
            pytest.param(
                lambda: np.stack([two_by_two("decay", 0.5, seed) for seed in range(5)]),
                None,
                id="2x2",
            ),
            pytest.param(
                lambda: lambda_sweep(propagator._block(3) + 3), "_expm_decoupled", id="decoupled"
            ),
            pytest.param(
                lambda: np.stack([random_symmetric(seed) for seed in range(5)]),
                "_expm_scaled_taylor",
                id="taylor",
            ),
            pytest.param(
                lambda: skew_hermitian_batch(), "_expm_scaled_taylor", id="taylor-polished"
            ),
        ],
    )
    def test_out_receives_the_returned_bits(self, monkeypatch, make, kernel):
        # out= may be a column slice of wider entry rows, as _step_maps
        # passes a block of its chunk's maps
        a = make()
        n = a.shape[-1]
        expected = expm_small(a)
        storage = np.full((n * n, len(a) + 7), np.nan, dtype=complex)
        out = storage[:, 3 : 3 + len(a)]
        taken = spy_kernels(monkeypatch)
        got = expm_small(a, out=out)
        assert taken == ([kernel] if kernel else [])
        assert np.array_equal(got, expected) and np.shares_memory(got, out)
        assert np.array_equal(out, to_entry_rows(expected).reshape(n * n, -1))
        assert np.all(np.isnan(storage[:, :3])) and np.all(np.isnan(storage[:, 3 + len(a) :]))

    @pytest.mark.parametrize(
        "shape, phase",
        [
            pytest.param((0, 2, 2), False, id="2x2"),
            pytest.param((0, 2, 2), True, id="2x2-phase"),
            pytest.param((0, 3, 3), False, id="3x3"),
            pytest.param((0, 3, 3), True, id="3x3-phase"),
        ],
    )
    @pytest.mark.parametrize("with_out", [False, True], ids=["new", "out"])
    def test_empty_batch(self, shape, phase, with_out):
        n = shape[-1]
        out = np.empty((n * n, 0), dtype=complex) if with_out else None
        phases = np.empty(0, dtype=complex) if phase else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expm_small(np.empty(shape, dtype=complex), out=out, phase=phases)
        assert got.shape == shape and got.dtype == complex


def assert_refused_without_warning(batch: np.ndarray) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^non-finite matrix entries$"):
            expm_small(batch)


def spy_kernels(monkeypatch) -> list:
    """The names of the 3x3 kernels expm_small runs from now on, in call
    order; the kernels themselves still run."""
    taken = []
    for name in ("_expm_decoupled", "_expm_scaled_taylor"):

        def spy(*args, kernel=getattr(propagator, name), name=name, **kwargs):
            taken.append(name)
            return kernel(*args, **kwargs)

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
    """How expm_small forms each 2x2 batch's cosh(s) and sinh(s)/s from now
    on, in call order: ("series", degree) or ("closed", None)."""
    taken = []
    series, closed = propagator._cosh_sinhc_series, propagator._cosh_sinhc_closed

    def spy_series(q, degree):
        taken.append(("series", degree))
        return series(q, degree)

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

    @pytest.mark.parametrize("q", [0.0, 1.5e-4, 1.0, 6.0])
    @pytest.mark.parametrize("kind", ["skew", "general", "decay"])
    def test_phase_free_maps_match_mpmath(self, kind, q):
        # V = e^(-m) exp(A), m the half-trace, is exp(A - m I) to 4 eps, past
        # Re(m) = 709 too, where the series now takes the batch; A - m I is
        # [[d, a01], [a10, -d]], d = (a00 - a11)/2 as the kernel forms it
        shifts = (0.0, 0.3j, 709.5)
        a = np.stack([two_by_two(kind, q, seed) + z * np.eye(2) for seed, z in enumerate(shifts)])
        m = np.empty(len(a), dtype=complex)
        v = expm_small(a, phase=m)
        assert np.array_equal(m, 0.5 * (a[:, 0, 0] + a[:, 1, 1]))
        for ai, vi in zip(a, v):
            d = 0.5 * (ai[0, 0] - ai[1, 1])
            expected = mpmath_expm(np.array([[d, ai[0, 1]], [ai[1, 0], -d]]))
            assert np.linalg.norm(vi - expected) <= 4 * EPS * np.linalg.norm(expected)

    @pytest.mark.parametrize(
        "batch",
        [
            pytest.param(lambda: lambda_sweep(64), id="decoupled"),
            pytest.param(lambda: np.stack([random_matrix(3, seed) for seed in range(8)]), id="taylor"),
        ],
    )
    def test_phase_leaves_3x3_maps_whole(self, batch):
        # only the 2x2 kernel factors out its phase: a 3x3 map keeps every
        # bit of exp(A) and its m is 0
        a = batch()
        m = np.full(len(a), np.nan, dtype=complex)
        assert np.array_equal(expm_small(a, phase=m), expm_small(a))
        assert np.array_equal(m, np.zeros(len(a)))

    @pytest.mark.parametrize(
        "q, degree", [(0.0, 0), (1e-300, 0), (4e-8, 2), (1.5e-4, 3), (1.0, 9), (4.0, 11)]
    )
    def test_degree_rule(self, q, degree):
        assert propagator._series_degree(q) == degree


def coupling_ratio(a: np.ndarray) -> float:
    # the gate's rho = max (|a02| + |a12|) / gap over the batch a
    rows = to_entry_rows(a.reshape(-1, 3, 3)).reshape(9, -1)
    return propagator._last_entry_dominates(rows)


def fixed_point_bound(ratio: float, k: int) -> float:
    # the rule's bound on |lambda_k - lambda*| / |a22|: L^k rho^2 / (1 - 2 rho^2)
    # with L = rho^2 / (1 - 2 rho^2)^2
    sq = ratio * ratio
    return (sq / (1.0 - 2.0 * sq) ** 2) ** k * sq / (1.0 - 2.0 * sq)


class TestFixedPointRule:
    """The decoupled kernel takes the least number of fixed-point steps k >= 1
    whose truncation bound is at most 2^-56 |a22|, from the batch's coupling
    ratio rho = max (|a02| + |a12|) / gap."""

    @pytest.mark.parametrize(
        "make, steps",
        [
            pytest.param(functools.partial(coupled_at_ratio, 258.0), 3, id="ratio-2^-8"),
            # the largest ratio of a 73 728-step Lambda block, at 1.2x amplitude
            pytest.param(lambda: lambda_sweep(propagator._block(3)), 2, id="73728-steps-1.2x"),
            pytest.param(
                lambda: lambda_sweep(propagator._block(3), steps=500_000), 2, id="500000-steps-1.2x"
            ),
            # couplings a tenth of the nominal ones
            pytest.param(
                lambda: lambda_steps(73_728, 2.85e-3, DELTA_M, 0.1 * OMEGA0, 0.05 * OMEGA0),
                1,
                id="weak-coupling",
            ),
            pytest.param(lambda: np.diag([0.5, -0.25j, -1j * 2400.0]), 1, id="uncoupled"),
        ],
    )
    def test_batch_picks_the_count(self, make, steps):
        assert propagator._fixed_point_steps(coupling_ratio(make())) == steps

    @pytest.mark.parametrize(
        "ratio, steps",
        [
            (0.0, 1),
            (2.0**-15, 1),
            (2.0**-14, 2),
            (6e-4, 2),
            (2.0**-9.4, 2),
            (2.0**-9.3, 3),
            (2.0**-8, 3),
        ],
    )
    def test_rule(self, ratio, steps):
        assert propagator._fixed_point_steps(ratio) == steps
        assert fixed_point_bound(ratio, steps) <= 2.0**-56
        assert steps == 1 or fixed_point_bound(ratio, steps - 1) > 2.0**-56

    @pytest.mark.parametrize("last", [258.0, 600.0, 4000.0])
    def test_bound_holds_in_extended_precision(self, last):
        # lambda_k from lambda_0 = a22 in 50 digits, against the fixed point
        a = coupled_at_ratio(last)
        ratio = coupling_ratio(a)
        with mpmath.workdps(50):
            m = mpmath.matrix(a.tolist())
            b, c, a22 = m[0:2, 0:2], m[0:2, 2], m[2, 2]

            def step(lam):
                return a22 + (c.T * mpmath.inverse(lam * mpmath.eye(2) - b) * c)[0]

            exact = a22
            for _ in range(40):
                exact = step(exact)
            lam = a22
            for k in range(1, 5):
                lam = step(lam)
                assert abs(lam - exact) <= fixed_point_bound(ratio, k) * abs(a22)


def gate_reference(m: np.ndarray) -> float | None:
    # _last_entry_dominates for one 3x3 matrix in Python floats, test by test
    # in the gate's order, from abs() of Python complex
    last, diag0, diag1, off = (abs(complex(m[i, j])) for i, j in ((2, 2), (0, 0), (1, 1), (0, 1)))
    if not (last <= 2.0**500 and diag0 <= last and diag1 <= last and off <= last):
        return None
    gap = last - diag0 - diag1 - 2.0 * off
    if not gap >= 2.0**-500:
        return None
    coupling = abs(complex(m[0, 2])) + abs(complex(m[1, 2]))
    if not coupling <= 2.0**-8 * gap:
        return None
    return coupling / gap


def gate_matrix(last: float, diag0=0.0, diag1=0.0, off=0.0, c0=0.0, c1=0.0) -> np.ndarray:
    # complex symmetric, each entry of the modulus given, with phases
    return np.array(
        [[diag0, 1j * off, c0], [1j * off, -diag1, -1j * c1], [c0, -1j * c1, -1j * last]],
        dtype=complex,
    )


def up(x: float) -> float:
    return float(np.nextafter(x, np.inf))


def down(x: float) -> float:
    return float(np.nextafter(x, -np.inf))


def gate_cases() -> dict:
    # single matrices at each bound of the decoupled gate and one float past
    # it, and the one at the coupling bound with each entry NaN or infinite
    cases = {
        "last-2^500": gate_matrix(2.0**500, c0=2.0**490),
        "last-past-2^500": gate_matrix(up(2.0**500), c0=2.0**490),
        "gap-2^-500": gate_matrix(2.0**-500, c0=2.0**-510),
        "gap-below-2^-500": gate_matrix(down(2.0**-500), c0=2.0**-510),
        # gap 10 - 1 - 2 - 2 * 0.5 = 6
        "coupling-2^-8-gap": gate_matrix(10.0, 1.0, 2.0, 0.5, 6 * 2.0**-9, 6 * 2.0**-9),
        "coupling-past-2^-8-gap": gate_matrix(10.0, 1.0, 2.0, 0.5, 6 * 2.0**-9, up(6 * 2.0**-9)),
        "a00-at-a22": gate_matrix(3.0, diag0=3.0),
        "a00-past-a22": gate_matrix(3.0, diag0=up(3.0)),
        "a11-past-a22": gate_matrix(3.0, diag1=up(3.0)),
        "a01-past-a22": gate_matrix(3.0, off=up(3.0)),
        "zero-gap": gate_matrix(4.0, 1.0, 1.0, 1.0),
        "gap-one-ulp": gate_matrix(up(4.0), 1.0, 1.0, 1.0, 2.0**-70),
        "zero-matrix": gate_matrix(0.0),
    }
    for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
        for value in (np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 1.0)):
            m = cases["coupling-2^-8-gap"].copy()
            m[i, j] = m[j, i] = value
            cases[f"a{i}{j}={value}"] = m
    return cases


GATE_CASES = gate_cases()


def dominant_symmetric(count: int, seed: int) -> np.ndarray:
    # complex-symmetric matrices with general complex entries and a dominant
    # last diagonal entry, where the products' roundings depend on both parts
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(count, 3, 3)) + 1j * rng.normal(size=(count, 3, 3))
    a = 0.25 * (a + np.swapaxes(a, 1, 2))
    a[:, 2, 2] = 40.0 * np.exp(2j * np.pi * rng.random(count))
    a[:, :2, 2] *= 0.01
    a[:, 2, :2] = a[:, :2, 2]
    return a


def plain_decoupled(rows: np.ndarray, steps: int) -> np.ndarray:
    # the decoupled kernel as plain numpy expressions, each forming a new
    # array: the bits its scratch form must keep, one block at a time
    out = np.empty(rows.shape, dtype=complex)
    width = propagator._block(3)
    for lo in range(0, rows.shape[-1], width):
        b00, b01, c0, b11, c1, a22 = rows[[0, 1, 2, 4, 5, 8], lo : lo + width]
        b01_sq = b01 * b01
        c0_sq, c1_sq, cross = c0 * c0, c1 * c1, 2.0 * b01 * c0 * c1
        lam = a22
        for _ in range(steps):
            p, r = lam - b00, lam - b11
            lam = a22 + (r * c0_sq + p * c1_sq + cross) / (p * r - b01_sq)
        p, r = lam - b00, lam - b11
        inv_det = 1.0 / (p * r - b01_sq)
        x0 = (r * c0 + b01 * c1) * inv_det
        x1 = (p * c1 + b01 * c0) * inv_det
        e00, e01, e10, e11 = propagator._expm_2x2(
            b00 - c0 * x0, b01 - c0 * x1, b01 - c1 * x0, b11 - c1 * x1
        )
        mu = np.exp(lam)
        inv_s = 1.0 / (1.0 + x0 * x0 + x1 * x1)
        z0 = (mu * x0 - e00 * x0 - e01 * x1) * inv_s
        z1 = (mu * x1 - e10 * x0 - e11 * x1) * inv_s
        block = out[:, lo : lo + width]
        block[0] = e00 + x0 * z0
        block[1] = block[3] = e01 + x1 * z0
        block[2] = block[6] = z0
        block[4] = e11 + x1 * z1
        block[5] = block[7] = z1
        block[8] = mu - x0 * z0 - x1 * z1
    return out


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

    @pytest.mark.parametrize("case", GATE_CASES)
    def test_gate_decision_table(self, case):
        # the gate's verdict and ratio, bit for bit, on one matrix at each
        # bound and past it, and with each entry NaN or infinite
        m = GATE_CASES[case]
        expected = gate_reference(m)
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            got = propagator._last_entry_dominates(m.reshape(9, 1))
        if expected is None:
            assert got is None
        else:
            assert got is not None and got.hex() == expected.hex()

    def test_gate_takes_empty_batch(self):
        assert propagator._last_entry_dominates(np.empty((9, 0), dtype=complex)) == 0.0

    @pytest.mark.parametrize("steps", [1, 2, 3])
    @pytest.mark.parametrize(
        "count",
        [1, 2, 3, propagator._block(3) + 1],
        ids=["1", "2", "3", "block+1"],
    )
    def test_matches_plain_expressions_bitwise(self, steps, count):
        # single columns too: a product over its own one-column operand
        # takes another numpy loop, with other roundings
        batches = [lambda_sweep(count, gamma=gamma) for gamma in (0.0, GAMMA)]
        batches += [lambda_sweep(count + 7)[k : k + count] for k in range(1, 7)]
        batches += [dominant_symmetric(count, seed) for seed in range(6)]
        for batch in batches:
            rows = to_entry_rows(batch).reshape(9, -1)
            assert propagator._last_entry_dominates(rows) is not None
            out = np.empty(rows.shape, dtype=complex)
            got = propagator._expm_decoupled(rows, steps, out)
            assert got is out
            assert np.array_equal(bits(got), bits(plain_decoupled(rows, steps)))

    def test_output_is_bitwise_symmetric(self, monkeypatch):
        taken, got = kernels_taken(monkeypatch, lambda_sweep(50))
        assert taken == ["_expm_decoupled"]
        assert np.array_equal(got, np.swapaxes(got, -1, -2))

    def test_block_boundary_is_bitwise_invisible(self, monkeypatch):
        batch = lambda_sweep(propagator._block(3) + 3)
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


def row_form_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # x @ y on (n*n, batch) entry rows, one multiply and add per entry and
    # term, the terms of each entry added in order of k
    n = math.isqrt(len(x))
    out = np.empty(x.shape, dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i * n + j] = x[i * n] * y[j]
            for k in range(1, n):
                out[i * n + j] += x[i * n + k] * y[k * n + j]
    return out


def bits(z: np.ndarray) -> np.ndarray:
    # the raw bits of a complex array, so that -0.0 and 0.0 differ
    return np.ascontiguousarray(z).view(np.uint64)


def signed_zero_rows(dim: int, count: int, seed: int) -> np.ndarray:
    # (n*n, count) entry rows whose parts are drawn from +-0, +-1 and
    # +-0.5, so many products and sums are signed zeros, and every fifth
    # column normal
    rng = np.random.default_rng(seed)
    parts = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -0.5], size=(2, dim * dim, count))
    rows = np.empty((dim * dim, count), dtype=complex)
    rows.real, rows.imag = parts  # keeps the sign of every zero part
    rows[:, 4::5] = rng.normal(size=(dim * dim, len(range(4, count, 5)))) * (1 + 1j)
    return rows


class TestProductForms:
    """_mul gathers every term of a batch of at most _GATHER_COLS products at
    once and takes wider batches row by row; both give the row form's bits."""

    @pytest.mark.parametrize("width", ["1", "2", "3", "crossover", "crossover+1"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_mul_matches_row_form(self, dim, width):
        crossover = propagator._GATHER_COLS
        count = {"crossover": crossover, "crossover+1": crossover + 1}.get(width) or int(width)
        # x is a strided view, as the product tree passes its levels
        x = signed_zero_rows(dim, 2 * count, seed=dim)[:, 1::2]
        y = signed_zero_rows(dim, count, seed=dim + 10)
        # (-0 + 0i)(1 + 0i) has real part -0 - 0 = -0, and so has every
        # entry of the first product
        x[:, 0], y[:, 0] = -0.0, 1.0
        got = propagator._mul(x, y)
        expected = row_form_product(x, y)
        assert np.all(np.signbit(expected.real[:, 0]) & (expected.real[:, 0] == 0))
        assert np.array_equal(bits(got), bits(expected))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_up_sweep_matches_row_form_tree(self, dim):
        # 2 * _GATHER_COLS + 3 maps: the first level's 1025 products take the
        # row form, the rest the gathered one, and levels 2051, 513, 257, ...
        # carry an odd last map
        m = random_maps(dim, 2 * propagator._GATHER_COLS + 3, unitary=False, seed=dim)
        m = to_entry_rows(m).reshape(dim * dim, -1)
        expected = [m]
        while expected[-1].shape[-1] > 1:
            level = expected[-1]
            count = level.shape[-1]
            even = count // 2 * 2
            paired = row_form_product(level[:, 1:even:2], level[:, 0:even:2])
            if count % 2:
                paired = np.concatenate([paired, level[:, -1:]], axis=-1)
            expected.append(paired)
        levels = [m]
        root = propagator._up_sweep(m, levels)
        assert [level.shape[-1] % 2 for level in levels[:4]] == [1, 0, 1, 1]
        assert len(levels) == len(expected)
        assert all(np.array_equal(bits(a), bits(b)) for a, b in zip(levels, expected))
        assert np.array_equal(bits(root), bits(expected[-1]))


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
    """H of req's run at instants t."""
    return req.model.hamiltonian_batch(*propagator._controls(req, t))


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
        monkeypatch.setattr(propagator, "_last_entry_dominates", lambda rows: None)
        calls = polish_calls(monkeypatch)
        run = RunSpec(lambda_params_no_decay, delta_m=DELTA_M, steps=20_000)
        result = run_protocol(run, ScheduleKind.SIQUAD, 2.85e-3)
        block = propagator._block(3)
        assert calls == [(min(block, 20_000 - lo), 3, 3) for lo in range(0, 20_000, block)]
        assert result.final_norm_sq <= 1.0 + 1e-9

    @pytest.mark.parametrize(
        "params, duration",
        [("two_level_params", 5.83 * TAU_PI), ("lambda_params_no_decay", 2.85e-3)],
        ids=["2x2", "lambda"],
    )
    def test_model_runs_take_no_polish(self, monkeypatch, request, params, duration):
        calls = polish_calls(monkeypatch)
        params = request.getfixturevalue(params)
        steps = propagator._chunk(make_model(params).dim) + 1
        run = RunSpec(params, delta_m=DELTA_M, steps=steps)
        result = run_protocol(run, ScheduleKind.SIQUAD, duration)
        assert calls == []
        assert abs(result.final_norm_sq - 1.0) <= 1e-9


@pytest.mark.parametrize("dim", [2, 3])
def test_unitarize_block_boundary_is_bitwise_invisible(dim):
    block = propagator._block(dim)
    u = random_maps(dim, block + 3, unitary=False, seed=dim)
    together = propagator._unitarize(u)
    head = propagator._unitarize(u[:block])
    tail = propagator._unitarize(u[block:])
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
        rows = to_entry_rows(u).reshape(dim * dim, -1)
        levels = [rows]
        propagator._up_sweep(rows, levels)
        every = propagator._chain_apply(levels, psi, out)
        # written in place: psi to row 0, the state after map k to row k + 1
        assert every.shape == (count, dim) and np.shares_memory(every, out)
        assert np.array_equal(out[0], psi) and np.array_equal(out[1:], every)
        err = np.linalg.norm(every - expected, axis=1)
        assert np.all(err <= 1e-13 * np.linalg.norm(expected, axis=1))
        root_state = propagator._apply(propagator._up_sweep(rows), psi[:, None]).T
        assert np.array_equal(root_state, every[-1:])

    def test_single_map_takes_no_product(self, monkeypatch):
        u = random_maps(3, 1, False, seed=0)
        psi = np.array([1.0, 0.5j, -0.25])

        def no_product(*args):
            raise AssertionError("a single map needs no pairwise product")

        monkeypatch.setattr(propagator, "_mul", no_product)
        out = np.empty((2, 3), dtype=complex)
        levels = [to_entry_rows(u).reshape(9, 1)]
        propagator._up_sweep(levels[0], levels)
        assert np.array_equal(propagator._chain_apply(levels, psi, out), [u[0] @ psi])


class ReversedSchedule:
    """A schedule sampled at T - t: its controls run backwards."""

    def __init__(self, schedule: PulseSchedule):
        self.schedule = schedule
        self.duration = schedule.duration

    def delta(self, t):
        return self.schedule.delta(self.duration - t)

    def pulses(self, t):
        return self.schedule.pulses(self.duration - t)


class NegatedModel:
    """A model with its Hamiltonian negated."""

    def __init__(self, model):
        self.model = model
        self.dim = model.dim

    def hamiltonian_batch(self, delta, omega_p, omega_s):
        return -self.model.hamiltonian_batch(delta, omega_p, omega_s)

    def mirror_residual(self, controls, mirrored):
        c, sq = self.model.mirror_residual(controls, mirrored)
        return -c, sq


def backward(req: EvolveRequest) -> EvolveRequest:
    """req's run backwards in time, -H sampled at T - t: for a Hermitian H it
    undoes the forward run."""
    return replace(req, model=NegatedModel(req.model), schedule=ReversedSchedule(req.schedule))


def two_level_request(
    protocol=ScheduleKind.SIQUAD,
    duration=5.83 * TAU_PI,
    delta_m=DELTA_M,
    steps=20000,
    **kwargs,
):
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
        back = evolve(replace(backward(req), initial=forward.final))
        assert back.path == "mirror"
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


@pytest.mark.parametrize(
    "steps", [lambda dim: propagator._chunk(dim) + 1, lambda dim: 4099], ids=["chunk+1", "odd"]
)
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
    params = request.getfixturevalue(params)
    steps = steps(make_model(params).dim)
    run = RunSpec(params, delta_m=DELTA_M, steps=steps, method=method)
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
                toy_lambda_request, steps=propagator._chunk(3) + 5, protocol=ScheduleKind.SIQUAD
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
    "length",
    [lambda dim: propagator._block(dim) + 3, lambda dim: propagator._chunk(dim) + 1],
    ids=["block+3", "chunk+1"],
)
@pytest.mark.parametrize(
    "make, dim, kernels",
    [
        pytest.param(two_level_request, 2, set(), id="2x2"),
        pytest.param(
            lambda steps: backward(two_level_request(steps=steps)), 2, set(), id="2x2-reversed"
        ),
        pytest.param(
            functools.partial(lambda_request, GAMMA), 3, {"_expm_decoupled"}, id="lambda-decay"
        ),
        pytest.param(functools.partial(lambda_request, 0.0), 3, {"_expm_decoupled"}, id="lambda"),
        pytest.param(
            functools.partial(toy_lambda_request, protocol=ScheduleKind.SIQUAD),
            3,
            {"_expm_scaled_taylor"},
            id="lambda-taylor",
        ),
    ],
)
def test_step_maps_match_whole_chunk_exponential(monkeypatch, make, dim, kernels, length):
    # a range that starts off step 0 and ends inside a block: the maps built
    # block by block match the exponential of the whole range's -i H dt,
    # bitwise for the 3x3 kernels.  numpy's SIMD loops round the tail of an
    # array differently, and the 2x2 series takes its degree from each
    # block's largest |q|, so a 2x2 map entry may move by an ulp or two.
    # Both are the phase-free maps, and their phases sum to the whole range's
    lo, length = 5, length(dim)
    req = make(steps=lo + length + 7)
    dt = req.schedule.duration / req.steps
    mid = (np.arange(lo, lo + length) + 0.5) * dt
    phase = np.empty(length, dtype=complex)
    expected = expm_small(-1j * dt * hamiltonian(req, mid), phase=phase)
    taken = spy_kernels(monkeypatch)
    rows, shift = propagator._step_maps(req, lo, lo + length)
    assert shift == pytest.approx(phase.sum(), rel=0, abs=length * EPS * np.max(np.abs(phase)))
    assert set(taken) == kernels
    # contiguous entry rows, which the product tree reads without a copy
    assert rows.shape == (dim * dim, length) and rows.flags.c_contiguous
    got = from_entry_rows(rows.reshape(dim, dim, length))
    if dim == 3:
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
        steps=propagator._chunk(3) + 5,
        store_trajectory=True,
    )
    got = evolve(req)
    expected = evolve(replace(req, model=AosLambdaModel(params)))
    assert np.array_equal(got.final.amplitudes, expected.final.amplitudes)
    assert np.array_equal(got.trajectory[1], expected.trajectory[1])


# the two-level operation times of the fig2 presets, and tau_pi for FLAT_PI
TWO_LEVEL_T = {
    ScheduleKind.SIQUAD: 5.83 * TAU_PI,
    ScheduleKind.FAQUAD: 6.33 * TAU_PI,
    ScheduleKind.LINEAR: 6.0 * TAU_PI,
    ScheduleKind.FLAT_PI: TAU_PI,
}
STEP_COUNTS = [
    pytest.param(lambda dim: 20_000, id="even"),
    pytest.param(lambda dim: 20_001, id="odd"),
    # the first half ends inside the second chunk
    pytest.param(lambda dim: 2 * propagator._chunk(dim) + 3, id="2chunks+3"),
]


def full_path(monkeypatch, req: EvolveRequest) -> EvolveResult:
    """req evolved with _structure forced to find no structure."""
    with monkeypatch.context() as m:
        m.setattr(propagator, "_structure", lambda req: "full")
        result = evolve(req)
    assert result.path == "full" and result.mirror_bound is None
    return result


def counted_evolve(monkeypatch, req: EvolveRequest) -> tuple[EvolveResult, int, int]:
    """req evolved, with the maps expm_small formed and the instants
    _controls sampled on the way, counted."""
    maps, samples = [], []
    expm, controls = propagator.expm_small, propagator._controls

    def spy_expm(a, **kwargs):
        maps.append(len(a))
        return expm(a, **kwargs)

    def spy_controls(req, t):
        samples.append(len(t))
        return controls(req, t)

    with monkeypatch.context() as m:
        m.setattr(propagator, "expm_small", spy_expm)
        m.setattr(propagator, "_controls", spy_controls)
        result = evolve(req)
    return result, sum(maps), sum(samples)


def agreement_bound(req: EvolveRequest) -> float:
    """max(1e-9, 4 eps N max ||H dt||): how far a structured run's final
    state may lie from the full path's."""
    dt = req.schedule.duration / req.steps
    h = hamiltonian(req, (np.arange(req.steps) + 0.5) * dt)
    return max(1e-9, 4 * EPS * req.steps * dt * float(np.max(np.linalg.norm(h, axis=(-2, -1)))))


def stirap_request(gamma: float, steps: int, omega_m: float = 0.0, **kwargs) -> EvolveRequest:
    # the bundled Lambda scenario's STIRAP run, equal peaks
    params = LambdaParams(
        omega_p0=OMEGA0, omega_s0=OMEGA0, delta_one_photon=DELTA_BIG, omega_m=omega_m, gamma=gamma
    )
    return EvolveRequest(
        model=make_model(params),
        schedule=make_schedule(params, ScheduleKind.STIRAP_GAUSSIAN, 2.85e-3),
        initial=QuantumState.basis(3, 0),
        steps=steps,
        **kwargs,
    )


class DetunedStep:
    """`schedule` with delta moved by `shift` at the midpoint of step k of
    an N-step run alone."""

    def __init__(self, schedule: PulseSchedule, steps: int, k: int, shift: float):
        self.schedule, self.duration, self.shift = schedule, schedule.duration, shift
        self.dt = schedule.duration / steps
        self.t_k = (k + 0.5) * self.dt

    def delta(self, t):
        d = self.schedule.delta(t)
        return np.where(np.abs(t - self.t_k) < 0.25 * self.dt, d + self.shift, d)

    def pulses(self, t):
        return self.schedule.pulses(t)


def half_past_first_chunk(dim: int) -> int:
    # an odd step count whose first half ends 3 blocks and 5 steps into its
    # second chunk
    return 2 * (propagator._chunk(dim) + 3 * propagator._block(dim) + 5) + 1


def refuted_pair(dim: int, index: int = 1) -> int:
    # a pair inside chunk `index` of the first half, in its fourth block
    return index * propagator._chunk(dim) + 3 * propagator._block(dim) + 7


def refuted_mid_run(make, dim: int, index: int = 1, **kwargs) -> EvolveRequest:
    """make's run of 2 index + 2 chunks and 3 steps with step N - 1 - j
    detuned, so that pair j = refuted_pair(dim, index) refutes the mirror."""
    req = make(steps=(2 * index + 2) * propagator._chunk(dim) + 3, **kwargs)
    k = req.steps - 1 - refuted_pair(dim, index)
    return replace(req, schedule=DetunedStep(req.schedule, req.steps, k, 1e-3 * OMEGA_M))


@pytest.mark.parametrize("steps", STEP_COUNTS)
@pytest.mark.parametrize(
    "error",
    [
        {"amplitude_scale": 0.8},
        {"amplitude_scale": 1.0},
        {"amplitude_scale": 1.2},
        {"amplitude_offset": 0.1 * OMEGA_M},
    ],
    ids=["scale-0.8", "scale-1.0", "scale-1.2", "offset"],
)
@pytest.mark.parametrize(
    "protocol, path",
    [
        (ScheduleKind.SIQUAD, "mirror"),
        (ScheduleKind.FAQUAD, "mirror"),
        (ScheduleKind.LINEAR, "mirror"),
        (ScheduleKind.FLAT_PI, "constant"),
    ],
    ids=["siquad", "faquad", "linear", "flat_pi"],
)
def test_two_level_structured_path_matches_full_path(monkeypatch, protocol, path, error, steps):
    req = two_level_request(protocol, TWO_LEVEL_T[protocol], steps=steps(2), **error)
    got = evolve(req)
    full = full_path(monkeypatch, req)
    assert got.path == path
    assert np.max(np.abs(got.final.amplitudes - full.final.amplitudes)) <= agreement_bound(req)
    if path == "constant":
        # the product tree's own pairing of equal maps: the same bits
        assert got.mirror_bound is None
        assert np.array_equal(got.final.amplitudes, full.final.amplitudes)
    else:
        assert 0.0 < got.mirror_bound <= propagator._MIRROR_TOL


@pytest.mark.parametrize("steps", STEP_COUNTS)
@pytest.mark.parametrize("gamma", [0.0, GAMMA], ids=["no-decay", "decay"])
def test_lambda_stirap_mirror_matches_full_path(monkeypatch, gamma, steps):
    # the pulses mirror each other and delta = 0, so Pi, the ground-state
    # swap, relates the halves with c_j = 0; decay sits on the fixed level
    req = stirap_request(gamma, steps(3))
    got = evolve(req)
    full = full_path(monkeypatch, req)
    assert got.path == "mirror" and got.mirror_bound <= propagator._MIRROR_TOL
    assert np.max(np.abs(got.final.amplitudes - full.final.amplitudes)) <= agreement_bound(req)
    assert abs(got.final_norm_sq - full.final_norm_sq) <= agreement_bound(req)


@pytest.mark.parametrize("steps", [4098, 4099])
def test_mirror_run_forms_half_the_maps(monkeypatch, steps):
    got, formed, _ = counted_evolve(monkeypatch, two_level_request(steps=steps))
    assert got.path == "mirror"
    assert formed == (steps + 1) // 2


def unequal_stirap_peaks(steps: int = 20_000) -> EvolveRequest:
    req = stirap_request(GAMMA, steps)
    return replace(req, schedule=replace(req.schedule, drive_amplitude_s=0.9 * OMEGA0))


INELIGIBLE = [
    pytest.param(
        functools.partial(two_level_request, detuning_offset=0.1 * OMEGA_M), id="detuning-offset"
    ),
    pytest.param(unequal_stirap_peaks, id="unequal-stirap-peaks"),
    # mirroring delta moves the excited level by delta
    pytest.param(functools.partial(lambda_request, GAMMA, 20_000), id="lambda-siquad"),
]


@pytest.mark.parametrize("make", INELIGIBLE)
def test_ineligible_runs_take_full_path(monkeypatch, make):
    req = make()
    got = evolve(req)
    assert got.path == "full" and got.mirror_bound > propagator._MIRROR_TOL
    assert np.array_equal(got.final.amplitudes, full_path(monkeypatch, req).final.amplitudes)


class SigmaYModel(TwoLevelModel):
    """A two-level model with an imaginary coupling, as a counter-diabatic
    term adds: Hermitian, but not complex symmetric."""

    def hamiltonian_batch(self, delta, omega_p, omega_s):
        h = super().hamiltonian_batch(delta, omega_p, omega_s)
        h[:, 0, 1] -= 0.05j * omega_p
        h[:, 1, 0] += 0.05j * omega_p
        return h


def test_non_symmetric_hamiltonian_takes_full_path(monkeypatch):
    # the mirror transposes the first half's product, so it needs U_j^T = U_j
    req = replace(two_level_request(steps=4000), model=SigmaYModel(TwoLevelParams(omega_m=OMEGA_M)))
    got = evolve(req)
    assert got.path == "full" and got.mirror_bound == math.inf
    assert np.array_equal(got.final.amplitudes, full_path(monkeypatch, req).final.amplitudes)


class PlainModel:
    """A model that builds H and gives no mirror residual formula."""

    def __init__(self, model):
        self.model, self.dim = model, model.dim

    def hamiltonian_batch(self, delta, omega_p, omega_s):
        return self.model.hamiltonian_batch(delta, omega_p, omega_s)


def test_model_without_residual_formula_takes_full_path(monkeypatch):
    req = two_level_request(steps=4000)
    got = evolve(replace(req, model=PlainModel(req.model)))
    assert got.path == "full" and got.mirror_bound is None
    assert np.array_equal(got.final.amplitudes, full_path(monkeypatch, req).final.amplitudes)


@pytest.mark.parametrize("protocol", [ScheduleKind.SIQUAD, ScheduleKind.FLAT_PI])
def test_rk4_looks_for_no_structure(protocol):
    req = two_level_request(protocol, TWO_LEVEL_T[protocol], steps=4000, method=Method.RK4)
    result = evolve(req)
    assert result.path == "full" and result.mirror_bound is None


@pytest.mark.parametrize(
    "make, path",
    [
        *(
            pytest.param(
                # the first half ends 2 steps into its second block
                functools.partial(
                    two_level_request, kind, TWO_LEVEL_T[kind], steps=2 * propagator._block(2) + 3
                ),
                path,
                id=f"{kind}-{path}",
            )
            for kind, path in [(ScheduleKind.SIQUAD, "mirror"), (ScheduleKind.FLAT_PI, "full")]
        ),
        # N/2 inside the first block, which the mirror's gate cuts at N/2
        # and a stepped trajectory run samples whole
        *(
            pytest.param(
                functools.partial(two_level_request, kind, TWO_LEVEL_T[kind], steps=4099),
                path,
                id=f"{kind}-{path}-within-first-block",
            )
            for kind, path in [(ScheduleKind.SIQUAD, "mirror"), (ScheduleKind.FLAT_PI, "full")]
        ),
        pytest.param(
            functools.partial(refuted_mid_run, two_level_request, 2), "full", id="refuted-mid-run"
        ),
        # N/2 past the first chunk, so that a run resuming at step 0, at N/2
        # or at the start of the chunk cut at N/2 shows
        pytest.param(
            lambda **kwargs: two_level_request(steps=half_past_first_chunk(2), **kwargs),
            "mirror",
            id="two-level-mirror-past-first-chunk",
        ),
        pytest.param(
            lambda **kwargs: stirap_request(GAMMA, half_past_first_chunk(3), **kwargs),
            "mirror",
            id="stirap-mirror-past-first-chunk",
        ),
        pytest.param(
            functools.partial(refuted_mid_run, two_level_request, 2, 1),
            "full",
            id="two-level-refuted-past-first-chunk",
        ),
        pytest.param(
            functools.partial(refuted_mid_run, functools.partial(stirap_request, GAMMA), 3, 1),
            "full",
            id="stirap-refuted-past-first-chunk",
        ),
    ],
)
def test_stored_trajectory_steps_every_map(monkeypatch, make, path):
    # every state on the way is the full path's; the last one is the plain
    # run's final state, so storing a trajectory changes no reported number
    req = make(store_trajectory=True)
    traced, formed, sampled = counted_evolve(monkeypatch, req)
    full = full_path(monkeypatch, req)
    plain, *plain_work = counted_evolve(monkeypatch, replace(req, store_trajectory=False))
    assert traced.path == path
    assert np.array_equal(traced.trajectory[1][:-1], full.trajectory[1][:-1])
    assert np.array_equal(traced.trajectory[1][-1], plain.final.amplitudes)
    assert np.array_equal(traced.final.amplitudes, plain.final.amplitudes)
    steps, half, chunk = req.steps, req.steps // 2, propagator._chunk(req.model.dim)
    if path == "mirror":
        # the state goes through the mirror's whole chunks as the gate
        # proves them, and the trajectory steps on from the start of the
        # chunk cut at N/2, k: that chunk's maps and samples are taken twice
        k = half - half % chunk
        assert (formed, sampled) == (steps + half % chunk + steps % 2, 2 * steps - k)
    elif traced.mirror_bound is not None:
        # refuted: the trajectory costs what the plain run does
        assert [formed, sampled] == plain_work


@pytest.mark.parametrize("past", [False, True], ids=["short-of-bound", "past-bound"])
def test_mirror_gate_at_the_bound(monkeypatch, past):
    # shift the last step's delta so that the bound lands 0.1 % short of, or
    # past, _MIRROR_TOL: its pair's residual is diag(a, -a) with
    # a = (delta_{N-1} + delta_0) / 2, of Frobenius norm |2 a| / sqrt 2
    steps = 20_000
    req = two_level_request(steps=steps)
    dt = req.schedule.duration / steps
    base = evolve(req).mirror_bound
    ends = propagator._controls(req, (np.array([0, steps - 1]) + 0.5) * dt)[0]
    two_a = ends[0] + ends[1]
    target = propagator._MIRROR_TOL * (1.001 if past else 0.999)
    shift = (abs(two_a) + math.sqrt(2) * (target - base) / dt) - two_a
    original = propagator._controls
    last = (steps - 1 + 0.5) * dt

    def perturbed(req, t):
        # step N - 1's midpoint, in whichever block samples it
        delta, omega_p, omega_s = original(req, t)
        if np.any(t == last):
            delta = np.where(t == last, delta + shift, delta)
        return delta, omega_p, omega_s

    monkeypatch.setattr(propagator, "_controls", perturbed)
    got = evolve(req)
    assert got.path == ("full" if past else "mirror")
    assert got.mirror_bound == pytest.approx(target, rel=1e-4)


def gathered_gate(req: EvolveRequest, h: np.ndarray, lo: int, hi: int) -> tuple[float, complex]:
    """Oracle: the gate's dt sum ||E_j|| and sum c_j over steps lo to hi - 1
    of H = h, its residual formed from one gathered copy of Pi H_j Pi."""
    n, steps = req.model.dim, req.steps
    dt = req.schedule.duration / steps
    swap = [1, 0, *range(2, n)]
    first = to_entry_rows(h).reshape(n * n, -1)
    mirror = [x[::-1] for x in propagator._samples(req, steps, steps - hi, steps - lo)]
    e = to_entry_rows(req.model.hamiltonian_batch(*mirror)).reshape(n * n, -1)
    e = e - first[[swap[i] * n + swap[j] for i in range(n) for j in range(n)]]
    c = e[:: n + 1].sum(axis=0) / n
    e[:: n + 1] -= c
    ev = e.view(float)
    sq = np.einsum("ib,ib->b", ev, ev)
    return dt * float(np.sum(np.sqrt(sq[0::2] + sq[1::2]))), c.sum()


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(functools.partial(two_level_request, steps=20_000), id="two-level"),
        pytest.param(functools.partial(stirap_request, GAMMA, 20_000), id="stirap"),
    ],
)
def test_mirror_gate_keeps_the_gathered_residual_bits(make):
    # the gate forms its residual row by row, with the bits of the gathered
    # form, on one whole first-half block
    req = make()
    n, steps = req.model.dim, req.steps
    hi = propagator._block(n)
    assert hi <= steps // 2
    controls = propagator._samples(req, steps, 0, hi)
    h = req.model.hamiltonian_batch(*controls)
    mirror = propagator._Mirror(req, steps)
    passed = mirror.check(h, controls, 0, hi)
    bound, c_sum = gathered_gate(req, h, 0, hi)
    assert mirror.bound == bound and mirror.c_sum == c_sum
    assert passed


def first_half_blocks(dim: int) -> tuple[int, list[tuple[int, int]]]:
    # an odd step count whose first half is two whole blocks and 5 steps,
    # and those three first-half blocks
    block = propagator._block(dim)
    return 2 * (2 * block + 5) + 1, [(0, block), (block, 2 * block), (2 * block, 2 * block + 5)]


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(
            functools.partial(two_level_request, amplitude_scale=1.2), id="two-level-scale"
        ),
        pytest.param(
            functools.partial(two_level_request, amplitude_offset=0.1 * OMEGA_M),
            id="two-level-offset",
        ),
        pytest.param(
            functools.partial(two_level_request, detuning_offset=0.1 * OMEGA_M),
            id="two-level-refuted",
        ),
        pytest.param(
            functools.partial(stirap_request, GAMMA, omega_m=OMEGA_M), id="stirap-omega-m"
        ),
        pytest.param(
            functools.partial(stirap_request, GAMMA, amplitude_offset=0.05 * OMEGA0),
            id="stirap-offset",
        ),
        pytest.param(functools.partial(lambda_request, GAMMA), id="lambda-siquad-refuted"),
    ],
)
def test_model_residual_keeps_the_gathered_bits(make):
    # each model's residual formula, on whole first-half blocks and the short
    # last one, passing or refuting: the gate's bound and sum c_j keep the
    # bits of the residual gathered from the built and mirrored H
    steps, blocks = first_half_blocks(make(steps=propagator.MIN_STEPS).model.dim)
    req = make(steps=steps)
    for lo, hi in blocks:
        controls = propagator._samples(req, steps, lo, hi)
        h = req.model.hamiltonian_batch(*controls)
        mirror = propagator._Mirror(req, steps)
        passed = mirror.check(h, controls, lo, hi)
        bound, c_sum = gathered_gate(req, h, lo, hi)
        assert mirror.bound == bound and mirror.c_sum == c_sum
        assert passed == (bound <= propagator._MIRROR_TOL)


def test_constant_run_never_exponentiates_the_whole_run(monkeypatch):
    # Delta = 3 Omega does not dominate, so every batch takes the Taylor
    # kernel, which refuses -i H T itself; the stepped run takes 20 000 maps
    # of norm about 95
    params = LambdaParams(
        omega_p0=2 * math.pi * 1e6, omega_s0=2 * math.pi * 1e6, delta_one_photon=2 * math.pi * 3e6
    )
    duration = 0.1
    req = EvolveRequest(
        model=make_model(params),
        schedule=make_schedule(params, ScheduleKind.FLAT_PI, duration),
        initial=QuantumState.basis(3, 0),
        steps=20_000,
    )
    h = hamiltonian(req, np.array([0.5 * duration / req.steps]))[0]
    assert np.linalg.norm(h) * duration > propagator._TAYLOR_MAX_NORM
    with pytest.raises(ValueError, match="exceeds"):
        expm_small(-1j * duration * h)
    taken = spy_kernels(monkeypatch)
    got = evolve(req)
    assert got.path == "constant" and set(taken) == {"_expm_scaled_taylor"}
    assert np.array_equal(got.final.amplitudes, full_path(monkeypatch, req).final.amplitudes)


@pytest.mark.parametrize(
    "make, refuted_at",
    [
        *(pytest.param(*p.values, 0, id=p.id) for p in INELIGIBLE),
        pytest.param(functools.partial(two_level_request, steps=20_001), None, id="mirror"),
        pytest.param(
            functools.partial(
                two_level_request,
                ScheduleKind.FLAT_PI,
                TWO_LEVEL_T[ScheduleKind.FLAT_PI],
                steps=2 * propagator._block(2) + 5,
            ),
            None,
            id="constant",
        ),
        pytest.param(
            functools.partial(lambda_request, GAMMA, 2 * propagator._chunk(3) + 3),
            0,
            id="lambda-siquad-2chunks+3",
        ),
        pytest.param(
            functools.partial(two_level_request, steps=propagator._chunk(2) + 5, method=Method.RK4),
            None,
            id="rk4-chunk+5",
        ),
        pytest.param(
            functools.partial(refuted_mid_run, two_level_request, 2),
            refuted_pair(2),
            id="mirror-refuted-mid-run",
        ),
        # N/2 inside the first block
        pytest.param(
            functools.partial(two_level_request, steps=4099), None, id="mirror-within-first-block"
        ),
        # a constant drive's stored trajectory takes the full path
        *(
            pytest.param(
                functools.partial(
                    two_level_request,
                    ScheduleKind.FLAT_PI,
                    TWO_LEVEL_T[ScheduleKind.FLAT_PI],
                    steps=steps,
                    store_trajectory=True,
                ),
                None,
                id=f"constant-trajectory-{steps}",
            )
            for steps in (50_000, 4099)
        ),
    ],
)
def test_controls_sampled_once_per_step(monkeypatch, make, refuted_at):
    # at each step's midpoint; a constant run at step 0's alone.  An RK4
    # block samples its 2 k + 1 half steps, so each block edge is sampled
    # twice: 2 N + 1 half steps and one more per block after the first.  A
    # run the gate refutes at step j also samples the mirror images of the
    # first half's blocks up to j's, and its refuted chunk's steps up to the
    # end of j's block again, as the stepped run forms that chunk
    req = make()
    result, _, sampled = counted_evolve(monkeypatch, req)
    block, chunk = propagator._block(req.model.dim), propagator._chunk(req.model.dim)
    expected = 1 if result.path == "constant" else req.steps
    if refuted_at is not None:
        end = min((refuted_at // block + 1) * block, req.steps // 2)
        expected += end + end - refuted_at // chunk * chunk
        assert result.path == "full" and result.mirror_bound > propagator._MIRROR_TOL
    if req.method is Method.RK4:
        # every chunk is cut into blocks from its own start
        blocks = sum(-(-min(chunk, req.steps - lo) // block) for lo in range(0, req.steps, chunk))
        expected += req.steps + blocks
    assert sampled == expected


@pytest.mark.parametrize(
    "method", [Method.PIECEWISE_EXPM, Method.RK4], ids=["midpoints", "rk4-half-steps"]
)
@pytest.mark.parametrize(
    "make, dim",
    [
        *(
            pytest.param(
                functools.partial(two_level_request, kind, TWO_LEVEL_T[kind]), 2, id=kind.value
            )
            for kind in TWO_LEVEL_T
        ),
        pytest.param(functools.partial(stirap_request, GAMMA), 3, id="stirap"),
    ],
)
def test_run_samples_do_not_depend_on_chunking(make, dim, method):
    # _samples over ranges that cut blocks and chunks anywhere take the
    # instants those steps read, each with the bits of one _controls call on
    # the whole run: steps lo to hi - 1's midpoints, or RK4's half steps 2 lo
    # to 2 hi, so neighbouring RK4 ranges share their edge's half step
    steps = 2 * propagator._chunk(dim) + 3
    req = make(steps=steps, method=method)
    dt = req.schedule.duration / steps
    rk4 = method is Method.RK4
    k = np.arange(2 * steps + 1 if rk4 else steps)
    t = k * (0.5 * dt) if rk4 else (k + 0.5) * dt
    expected = np.array(propagator._controls(req, t))
    block, chunk = propagator._block(dim), propagator._chunk(dim)
    cuts = [0, 1, 2, block - 1, block + 1, chunk, chunk + 3 * block + 5, 2 * chunk + 1, steps]
    for lo, hi in zip(cuts, cuts[1:]):
        got = np.array(propagator._samples(req, steps, lo, hi))
        at = slice(2 * lo, 2 * hi + 1) if rk4 else slice(lo, hi)
        assert got.tobytes() == expected[:, at].tobytes()


@pytest.mark.parametrize("rescaled", [False, True], ids=["T", "3T"])
@pytest.mark.parametrize(
    "error",
    [
        {},
        {"amplitude_scale": 0.8},
        {"amplitude_offset": 0.1 * OMEGA0},
        {"detuning_offset": 0.1 * OMEGA_M},
    ],
    ids=["nominal", "scale", "offset", "detuning"],
)
@pytest.mark.parametrize("kind", list(ScheduleKind), ids=lambda kind: kind.value)
def test_schedule_declares_constant_exactly_when_its_samples_are(kind, error, rescaled):
    # evolve takes the constant path on the schedule's word, without
    # sampling the run: `constant` must hold exactly where every instant a
    # run samples, its midpoints or RK4's half steps, has step 0's controls
    params = LambdaParams(omega_p0=OMEGA0, omega_s0=OMEGA0, delta_one_photon=DELTA_BIG)
    schedule = make_schedule(params, kind, 2.85e-3, delta_m=DELTA_M)
    if rescaled:
        schedule = schedule.with_duration(3 * schedule.duration)
    steps = 2 * propagator._block(3) + 5
    for method in Method:
        req = EvolveRequest(
            model=make_model(params),
            schedule=schedule,
            initial=QuantumState.basis(3, 0),
            steps=steps,
            method=method,
            **error,
        )
        samples = np.array(propagator._samples(req, steps, 0, steps))
        assert schedule.constant == bool(np.all(samples == samples[:, :1]))


@pytest.mark.parametrize("dim", [2, 3])
def test_chunk_maps_fit_in_cache(dim):
    # 2 MiB of (n, n) complex maps, whole blocks
    chunk = propagator._chunk(dim)
    assert chunk == {2: 32768, 3: 8192}[dim] and chunk % propagator._block(dim) == 0


def test_block_is_sized_by_the_dimension():
    # a 2x2 block is a short power series, so it takes four times the 3x3 block
    assert propagator._block(2) == 8192 and propagator._block(3) == 2048


@pytest.mark.parametrize(
    "make, path",
    [
        (functools.partial(lambda_request, GAMMA, 2 * propagator._chunk(3) + 3), "full"),
        (functools.partial(stirap_request, GAMMA, 2 * propagator._chunk(3) + 3), "mirror"),
    ],
    ids=["lambda-siquad", "lambda-stirap"],
)
def test_streamed_roots_keep_every_bit(make, path):
    # the chunks' roots, applied one after another, against every map of the
    # run applied one at a time; a mirror run may move by its bound as well
    req = make()
    got = evolve(req)
    dt = req.schedule.duration / req.steps
    maps = expm_small(-1j * dt * hamiltonian(req, (np.arange(req.steps) + 0.5) * dt))
    expected = sequential_states(maps, req.initial.amplitudes)[-1]
    assert got.path == path
    tol = 1e-13 + (got.mirror_bound if path == "mirror" else 0.0)
    assert np.max(np.abs(got.final.amplitudes - expected)) <= tol


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(
            functools.partial(two_level_request, steps=2 * propagator._chunk(2) + 3),
            id="two-level",
        ),
        pytest.param(
            functools.partial(lambda_request, GAMMA, 2 * propagator._chunk(3) + 3),
            id="lambda-decay",
        ),
    ],
)
def test_trajectory_takes_each_step_phase(make):
    # over three chunks, every stored state takes e^(cumsum m) of its
    # chunk's phases: the rows stay within 1e-12 (relative), the row
    # tolerance of perfbench's trajectory gate, of the states of every
    # exp(-i H dt) map applied one at a time.  Measured: 1.7e-13 (two-level;
    # 2.8e-13 with e^m in every map).  The Lambda maps keep their phase
    # (m = 0), and their rows stay at 8.2e-15
    req = replace(make(), store_trajectory=True)
    got = evolve(req)
    dt = req.schedule.duration / req.steps
    a = -1j * dt * hamiltonian(req, (np.arange(req.steps) + 0.5) * dt)
    assert np.max(np.abs(np.trace(a, axis1=1, axis2=2))) > 0.0
    expected = sequential_states(expm_small(a), req.initial.amplitudes)
    states = got.trajectory[1]
    assert np.array_equal(states[0], req.initial.amplitudes)
    err = np.linalg.norm(states[1:] - expected, axis=1)
    assert np.all(err <= 1e-12 * np.linalg.norm(expected, axis=1))


@pytest.mark.parametrize("steps", STEP_COUNTS)
def test_constant_path_keeps_the_stepped_phase_sum(monkeypatch, steps):
    # a detuning offset gives every FLAT_PI map the phase m = -i dt delta / 2:
    # the constant path sums it as the stepped run does, bit for bit
    flat_pi = ScheduleKind.FLAT_PI
    req = two_level_request(
        flat_pi, TWO_LEVEL_T[flat_pi], steps=steps(2), detuning_offset=0.1 * OMEGA_M
    )
    got = evolve(req)
    assert got.path == "constant"
    assert np.array_equal(got.final.amplitudes, full_path(monkeypatch, req).final.amplitudes)


@pytest.mark.parametrize("protocol", [ScheduleKind.SIQUAD, ScheduleKind.FAQUAD])
def test_fig2b_norm_drift(protocol):
    # the fig2b runs at 9 amplitude scales: with each chunk's phase e^(sum m)
    # taken once, |norm^2 - 1| reads 4.3e-13 (SIQUAD) and 2.5e-13 (FAQUAD);
    # with e^m in every map it read 8.3e-13 and 1.05e-12
    run = load_config("fig2b_amplitude").run
    drift = [
        abs(run_protocol(run, protocol, amplitude_scale=float(scale)).final_norm_sq - 1.0)
        for scale in np.linspace(0.9, 1.1, 9)
    ]
    assert max(drift) <= 6e-13


class CountingModel:
    """A model that records the length of every Hamiltonian batch it builds."""

    def __init__(self, model):
        self.model = model
        self.dim = model.dim
        self.batches = []

    def hamiltonian_batch(self, delta, omega_p, omega_s):
        self.batches.append(len(delta))
        return self.model.hamiltonian_batch(delta, omega_p, omega_s)

    def mirror_residual(self, controls, mirrored):
        return self.model.mirror_residual(controls, mirrored)


REFUTED = [
    pytest.param(two_level_request, 2, id="two-level"),
    pytest.param(functools.partial(stirap_request, GAMMA), 3, id="stirap"),
]


@pytest.mark.parametrize("make, dim", REFUTED)
def test_refuted_mirror_stops_at_the_same_block(make, dim):
    # no block past the refuting pair's is formed, and the stepped run goes
    # on from that pair's chunk, the first half's second
    req = refuted_mid_run(make, dim)
    counting = CountingModel(req.model)
    got = evolve(replace(req, model=counting))
    assert got.path == "full" and got.mirror_bound > propagator._MIRROR_TOL
    block, chunk = propagator._block(dim), propagator._chunk(dim)
    # each of the mirror's blocks builds its own H; the gate reads the
    # mirror's samples alone
    mirror = [block] * (refuted_pair(dim) // block + 1)
    stepped = [block] * ((req.steps - chunk) // block) + [(req.steps - chunk) % block]
    assert counting.batches == mirror + stepped


@pytest.mark.parametrize("make, dim", REFUTED)
@pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
def test_mirror_run_builds_h_only_for_the_maps_it_forms(monkeypatch, make, dim, odd):
    # the gate reads the mirror's samples, not a mirrored H: a proved mirror
    # builds H for its first half and an odd run's middle step alone
    steps = half_past_first_chunk(dim) - (not odd)
    req = make(steps=steps)
    counting = CountingModel(req.model)
    got, formed, _ = counted_evolve(monkeypatch, replace(req, model=counting))
    assert got.path == "mirror"
    assert sum(counting.batches) == formed == (steps + 1) // 2


@pytest.mark.parametrize("make, dim", REFUTED)
@pytest.mark.parametrize("index", [1, 2], ids=["second-chunk", "third-chunk"])
def test_refuted_mirror_forms_each_map_once(monkeypatch, make, dim, index):
    # the state went through the mirror's whole chunks as the gate proved
    # them, and steps on from the refuted chunk: only that chunk's blocks
    # before the refuting one are formed twice, and the final state is the
    # full path's
    req = refuted_mid_run(make, dim, index)
    got, formed, _ = counted_evolve(monkeypatch, req)
    block, chunk = propagator._block(dim), propagator._chunk(dim)
    assert got.path == "full"
    assert formed == req.steps + (refuted_pair(dim, index) - index * chunk) // block * block
    assert np.array_equal(got.final.amplitudes, full_path(monkeypatch, req).final.amplitudes)


@pytest.mark.parametrize("make, dim", REFUTED)
@pytest.mark.parametrize("refuted", [False, True], ids=["proved", "refuted"])
def test_kept_one_step_root_owns_its_memory(monkeypatch, make, dim, refuted):
    # N/2 = 1 (mod _chunk): the first half's last chunk is one step, whose
    # root _up_sweep returns as a view of the run's maps.  A proved mirror
    # with a stored trajectory forms maps into that array again before its
    # final state is taken from the kept product of the roots; a refuted one
    # is refuted at that step and steps on from its chunk
    steps = 2 * (propagator._chunk(dim) + 1)
    if refuted:
        req = make(steps=steps)
        # pair j = N/2 - 1, the first half's last step
        req = replace(req, schedule=DetunedStep(req.schedule, steps, steps // 2, 1e-3 * OMEGA_M))
        got = evolve(req)
        assert got.path == "full" and got.mirror_bound > propagator._MIRROR_TOL
        assert np.array_equal(got.final.amplitudes, full_path(monkeypatch, req).final.amplitudes)
    else:
        req = make(steps=steps, store_trajectory=True)
        traced, plain = evolve(req), evolve(replace(req, store_trajectory=False))
        assert traced.path == plain.path == "mirror"
        assert np.array_equal(traced.final.amplitudes, plain.final.amplitudes)
        full = full_path(monkeypatch, req)
        assert np.array_equal(traced.trajectory[1][:-1], full.trajectory[1][:-1])


def test_rk4_maps_do_not_depend_on_the_range():
    # a range that starts off step 0 samples the half step it starts from,
    # as each of a run's blocks does: the same bits
    block = propagator._block(2)
    req = two_level_request(steps=block + 20, method=Method.RK4)
    whole, _ = propagator._step_maps(req, 0, req.steps)
    lo, hi = block - 3, block + 9
    part, shift = propagator._step_maps(req, lo, hi)
    assert np.array_equal(part, whole[:, lo:hi]) and shift == 0


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


class TestConvergenceProbe:
    def test_constant_hamiltonian_is_exact(self):
        report = convergence_probe(
            two_level_request(ScheduleKind.FLAT_PI, TAU_PI, 0.0, steps=100), refinements=3
        )
        assert max(err for _, err in report.rows) < 1e-12

    def test_expm_midpoint_is_second_order(self):
        assert evolve(two_level_request(steps=4000)).path == "mirror"
        report = convergence_probe(two_level_request(steps=4000), refinements=4)
        assert 1.5 <= report.order <= 2.5

    def test_expm_midpoint_is_second_order_on_full_path(self):
        # a detuning offset breaks the mirror, so every refinement steps
        # every map
        req = two_level_request(steps=4000, detuning_offset=0.1 * OMEGA_M)
        assert evolve(req).path == "full"
        report = convergence_probe(req, refinements=4)
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


# the unit of the memory tests: 65 536 steps, and the (65 536, n, n) complex
# step maps of that many steps
UNIT = 65536


def peak_bytes(run: RunSpec, duration: float = 2.85e-3, **kwargs) -> int:
    """tracemalloc peak in bytes of a SIQUAD run_protocol (after one
    untraced warm-up)."""
    run_protocol(run, ScheduleKind.SIQUAD, duration, **kwargs)
    tracemalloc.start()
    try:
        run_protocol(run, ScheduleKind.SIQUAD, duration, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def peak_in_chunks(run: RunSpec, duration: float = 2.85e-3, **kwargs) -> float:
    """peak_bytes in units of UNIT (n, n) complex step maps."""
    n = make_model(run.params).dim
    return peak_bytes(run, duration, **kwargs) / (UNIT * n * n * np.dtype(complex).itemsize)


@pytest.mark.parametrize("steps", [UNIT, 2 * UNIT])
def test_lambda_chunk_peak_memory(lambda_params, steps):
    # a run forms every 8192-step chunk's maps into one array and samples a
    # block at a time: 0.30 units at one unit of steps and at two, bounded
    # with a margin of 0.05 units (295 KB); holding the whole run's samples
    # would read 0.46 and 0.63
    run = RunSpec(lambda_params, delta_m=DELTA_M, steps=steps)
    assert peak_in_chunks(run) <= 0.35


@pytest.mark.parametrize("steps", [UNIT, 2 * UNIT])
def test_two_level_chunk_peak_memory(two_level_params, steps):
    # a mirror run forms its first half 32 768 maps at a time into one array
    # and samples a block at a time: 0.99 units at one unit of steps and at
    # two, bounded with a margin of 0.06 units (0.25 MB); holding the whole
    # run's samples would add 0.37 and 0.74
    run = RunSpec(two_level_params, delta_m=DELTA_M, steps=steps)
    assert peak_in_chunks(run, 5.83 * TAU_PI) <= 1.05


def test_lambda_peak_memory_does_not_grow_with_steps(lambda_params):
    # no array of a run but a stored trajectory grows with its step count:
    # 10^6 full-path steps peak within 5 % of 131 072 (2.8 MB both; holding
    # the whole run's samples would read 25.5 and 5.7 MiB)
    long, short = (RunSpec(lambda_params, delta_m=DELTA_M, steps=n) for n in (10**6, 2 * UNIT))
    assert peak_bytes(long) <= 1.05 * peak_bytes(short)


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
    rows = 2 * UNIT + 1
    peak = trajectory_csv_peak(rows)
    assert peak <= 1.5 * rows * 3 * np.dtype(complex).itemsize
    assert peak <= 1.05 * trajectory_csv_peak(rows // 2 + 1)


def test_lambda_trajectory_peak_memory(lambda_params_no_decay):
    # two units: the stored trajectory (2/3 of a unit of maps) and one
    # 8192-step chunk's maps, product tree levels and block temporaries,
    # 1.01 in all (1.34 holding the whole run's samples); forming a unit's
    # maps at once would read 3.50
    run = RunSpec(lambda_params_no_decay, delta_m=DELTA_M, steps=2 * UNIT)
    assert peak_in_chunks(run, store_trajectory=True) <= 1.15


def test_run_protocol_convenience(two_level_params):
    result = run_protocol(RunSpec(two_level_params, steps=1000), ScheduleKind.FLAT_PI, TAU_PI)
    assert result.populations[1] == pytest.approx(1.0, abs=1e-10)
