"""Acceptance checklist for the simulator, one test per criterion.

Each test prints one ``ACCEPTANCE <id>: PASS/FAIL`` line (run pytest with
``-rA`` or ``-s`` to see them) before asserting, so the checklist survives in
the log either way.

Known red: criterion 5c.  At the quoted operation times (5.83 tau_pi for the
SIQUAD sweep, 6.33 tau_pi for FAQUAD) the FAQUAD curve sits exactly on one of
its fidelity maxima while 5.83 tau_pi falls between SIQUAD maxima, so FAQUAD
has the smaller error near the axis center and the pointwise 90% dominance
count cannot be met on either error axis (measured: 34/41 amplitude, 20/41
detuning).  SIQUAD does dominate on worst-case error over both windows, and
both protocols dominate the flat pulse; see the decisions ledger for the full
analysis.  The assertion is kept as specified rather than weakened.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from quadsim import (
    Axis,
    AxisWindow,
    EvolveRequest,
    LambdaParams,
    Method,
    PulseSchedule,
    QuantumState,
    ReducedTwoLevelModel,
    RunSpec,
    ScheduleKind,
    SweepSpec,
    adiabatic_elimination,
    adiabaticity_s,
    adiabaticity_sprime,
    convergence_probe,
    delta_derivative,
    evolve,
    expm_small,
    make_model,
    make_schedule,
    pi_time,
    run_protocol,
    run_sweep,
    siquad_sprime_value,
    three_level_gap,
    transfer_metrics,
)
from quadsim.cli import main as cli_main

from conftest import DELTA_BIG, DELTA_M, OMEGA0, OMEGA_M, TAU_PI

T_PI = TAU_PI
T_SI = 5.83 * TAU_PI
T_FA = 6.33 * TAU_PI
T3_SHORT = 2.85e-3
T3_LONG = 21.12e-3


def report(cid: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {cid}: {status} [{time.monotonic() - started:.1f}s] {detail}")


@pytest.fixture(scope="module")
def three_level_runs(lambda_params, lambda_params_no_decay):
    """Shared heavy three-level propagations (criteria 6 and 7)."""
    runs = {}
    runs["si_gamma_on"] = run_protocol(
        RunSpec(lambda_params, delta_m=DELTA_M, steps=500_000),
        ScheduleKind.SIQUAD,
        T3_SHORT,
    )
    runs["stirap_gamma_on"] = run_protocol(
        RunSpec(lambda_params, steps=500_000),
        ScheduleKind.STIRAP_GAUSSIAN,
        T3_SHORT,
    )
    runs["si_gamma_off"] = run_protocol(
        RunSpec(lambda_params_no_decay, delta_m=DELTA_M, steps=500_000),
        ScheduleKind.SIQUAD,
        T3_SHORT,
    )
    runs["si_gamma_off_long"] = run_protocol(
        RunSpec(lambda_params_no_decay, delta_m=DELTA_M, steps=1_000_000),
        ScheduleKind.SIQUAD,
        T3_LONG,
    )
    return runs


def test_criterion_1_constant_sprime_law(lambda_params_no_decay):
    started = time.monotonic()
    gap3 = three_level_gap(lambda_params_no_decay)
    cases = [
        ("two-level", T_SI, OMEGA_M),
        ("three-level", T3_SHORT, gap3),
    ]
    spreads = []
    for _, duration, omega in cases:
        sched = PulseSchedule(
            kind=ScheduleKind.SIQUAD, duration=duration, delta_m=DELTA_M,
            omega_ref=omega, drive_amplitude=omega,
        )
        times = np.linspace(0.0, duration, 10_000)
        sp = adiabaticity_sprime(sched.delta(times), delta_derivative(sched, times), omega)
        expected = siquad_sprime_value(duration, DELTA_M, omega)
        spread = float((sp.max() - sp.min()) / expected)
        bias = float(np.max(np.abs(sp - expected)) / expected)
        spreads.append(max(spread, bias))
    ok = all(s < 1e-9 for s in spreads)
    report("1", ok, f"s' relative spread/bias per case: {[f'{s:.2e}' for s in spreads]}", started)
    assert ok


def test_criterion_2_constant_s_law():
    started = time.monotonic()
    sched = PulseSchedule(
        kind=ScheduleKind.FAQUAD, duration=T_FA, delta_m=DELTA_M,
        omega_ref=OMEGA_M, drive_amplitude=OMEGA_M,
    )
    times = np.linspace(0.0, T_FA, 10_000)
    s = adiabaticity_s(sched.delta(times), delta_derivative(sched, times), OMEGA_M)
    spread = float((s.max() - s.min()) / s.mean())

    c = DELTA_M / (T_FA * OMEGA_M * math.hypot(DELTA_M, OMEGA_M))

    def rhs(t, y):
        return 2 * c * (y[0] ** 2 + OMEGA_M**2) ** 1.5 / OMEGA_M

    sol = solve_ivp(
        rhs, (0.0, T_FA), [-DELTA_M], method="DOP853",
        rtol=1e-12, atol=OMEGA_M * 1e-10, dense_output=True,
    )
    sample = np.linspace(0.0, T_FA, 1001)
    ode = sol.sol(sample)[0]
    closed = sched.delta(sample)
    oracle_dev = float(np.max(np.abs(closed - ode) / (np.abs(ode) + OMEGA_M)))

    ok = spread < 1e-8 and oracle_dev < 1e-6
    report("2", ok, f"s spread {spread:.2e} (<1e-8), ODE-oracle deviation {oracle_dev:.2e} (<1e-6)", started)
    assert spread < 1e-8
    assert oracle_dev < 1e-6


def test_criterion_3_pi_pulse_exactness(two_level_params):
    started = time.monotonic()
    tau = pi_time(OMEGA_M)
    result = run_protocol(RunSpec(two_level_params, steps=10_000), ScheduleKind.FLAT_PI, tau)
    err = transfer_metrics(result.final, 1).error
    ok = abs(tau - 3.333e-6) < 1e-3 * tau and err < 1e-8
    report("3", ok, f"tau_pi = {tau * 1e6:.4f} us, transfer error {err:.2e} (<1e-8)", started)
    assert tau == pytest.approx(3.333e-6, rel=1e-3)
    assert err < 1e-8


def _mpmath_expm(a: np.ndarray, terms: int = 60, dps: int = 50) -> np.ndarray:
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
        return np.array([[complex(total[i, j]) for j in range(n)] for i in range(n)])


def test_criterion_4_propagator_properties(two_level_params):
    started = time.monotonic()
    details = []

    # norm conservation without decay
    drifts = []
    for params, protocol, duration, delta_m, steps in [
        (two_level_params, ScheduleKind.SIQUAD, T_SI, DELTA_M, 10_000),
        (two_level_params, ScheduleKind.SIQUAD, T_SI, DELTA_M, 100_000),
        (
            LambdaParams(omega_p0=OMEGA0, omega_s0=OMEGA0, delta_one_photon=DELTA_BIG),
            ScheduleKind.SIQUAD,
            T3_SHORT,
            DELTA_M,
            200_000,
        ),
    ]:
        result = run_protocol(RunSpec(params, delta_m=delta_m, steps=steps), protocol, duration)
        drifts.append(abs(result.final_norm_sq - 1.0))
    norm_ok = all(d < 1e-9 for d in drifts)
    details.append(f"max |norm^2-1| = {max(drifts):.2e} (<1e-9)")

    # decay monotonicity
    toy = LambdaParams(
        omega_p0=2 * math.pi * 1e6,
        omega_s0=2 * math.pi * 1e6,
        delta_one_photon=2 * math.pi * 3e6,
        gamma=2 * math.pi * 0.3e6,
    )
    result = run_protocol(
        RunSpec(toy, steps=20_000),
        ScheduleKind.FLAT_PI,
        2e-6,
        store_trajectory=True,
    )
    norms = np.sum(np.abs(result.trajectory[1]) ** 2, axis=1)
    mono_ok = bool(np.all(np.diff(norms) <= 1e-12))
    details.append(f"decay monotone: {mono_ok}")

    # observed convergence orders on the SIQUAD two-level scenario
    model = make_model(two_level_params)
    schedule = make_schedule(two_level_params, ScheduleKind.SIQUAD, T_SI, delta_m=DELTA_M)
    base = EvolveRequest(
        model=model, schedule=schedule, initial=QuantumState.basis(2, 0), steps=4000
    )
    # the plain run takes the mirror path; a detuning offset breaks the mirror
    # and shows the order on the full path
    detuned = replace(base, detuning_offset=0.1 * two_level_params.omega_m)
    paths = (evolve(base).path, evolve(detuned).path)
    expm_order = convergence_probe(base, refinements=4).order
    full_order = convergence_probe(detuned, refinements=4).order
    rk4_order = convergence_probe(replace(base, method=Method.RK4), refinements=4).order
    orders_ok = (
        paths == ("mirror", "full")
        and 1.5 <= expm_order <= 2.5
        and 1.5 <= full_order <= 2.5
        and 3.5 <= rk4_order <= 4.5
    )
    details.append(
        f"orders: expm {expm_order:.2f} ({paths[0]}), {full_order:.2f} ({paths[1]}) (2+-0.5), "
        f"rk4 {rk4_order:.2f} (4+-0.5)"
    )

    # matrix exponential against the extended-precision series oracle
    rng = np.random.default_rng(2024)
    devs = []
    for _ in range(5):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a /= np.linalg.norm(a)
        expected = _mpmath_expm(a)
        devs.append(
            np.linalg.norm(expm_small(a) - expected) / np.linalg.norm(expected)
        )
    h = rng.normal(size=(3, 3))
    h = -1j * (h + h.T) * (30.0 / np.linalg.norm(h + h.T))
    expected = _mpmath_expm(h, terms=150)
    devs.append(np.linalg.norm(expm_small(h) - expected) / np.linalg.norm(expected))
    expm_ok = all(d < 1e-12 for d in devs)
    details.append(f"expm vs series oracle max dev {max(devs):.2e} (<1e-12)")

    ok = norm_ok and mono_ok and orders_ok and expm_ok
    report("4", ok, "; ".join(details), started)
    assert norm_ok and mono_ok and orders_ok and expm_ok


def _two_level_sweep(two_level_params, axis, lo, hi, points, steps=100_000) -> SweepSpec:
    run = RunSpec(
        params=two_level_params,
        protocols=(ScheduleKind.SIQUAD, ScheduleKind.FAQUAD, ScheduleKind.FLAT_PI),
        durations={
            ScheduleKind.SIQUAD: T_SI,
            ScheduleKind.FAQUAD: T_FA,
            ScheduleKind.FLAT_PI: T_PI,
        },
        delta_m=DELTA_M,
        steps=steps,
    )
    return SweepSpec(run, AxisWindow(axis, lo, hi, points))


def test_criterion_5a_flat_pulse_fidelity_oscillates(two_level_params):
    started = time.monotonic()
    spec = _two_level_sweep(
        two_level_params, Axis.DURATION, 0.0, 10 * TAU_PI, points=200, steps=20_000
    )
    result = run_sweep(spec)
    times = result.axis_values()
    fid = result.fidelities_for(ScheduleKind.FLAT_PI)

    spacing = times[1] - times[0]
    offsets = []
    peak_fids = []
    for k in (1, 3, 5, 7, 9):
        window = np.abs(times - k * TAU_PI) <= 0.5 * TAU_PI
        idx = np.flatnonzero(window)[np.argmax(fid[window])]
        offsets.append(abs(times[idx] - k * TAU_PI))
        peak_fids.append(fid[idx])
    maxima_aligned = all(off <= spacing for off in offsets)
    maxima_high = all(f >= 0.998 for f in peak_fids)

    interior = fid[1:-1]
    n_local_max = int(
        np.sum((interior > fid[:-2]) & (interior >= fid[2:]) & (interior > 0.9))
    )
    ok = maxima_aligned and maxima_high and n_local_max == 5
    report(
        "5a",
        ok,
        f"flat-pulse maxima at odd tau_pi within one grid step: {maxima_aligned}, "
        f"min peak fidelity {min(peak_fids):.5f}, local maxima {n_local_max} (expect 5)",
        started,
    )
    assert maxima_aligned and maxima_high
    assert n_local_max == 5


def test_criterion_5b_siquad_error_at_quoted_duration(two_level_params):
    started = time.monotonic()
    result = run_protocol(
        RunSpec(two_level_params, delta_m=DELTA_M, steps=100_000),
        ScheduleKind.SIQUAD,
        T_SI,
    )
    err = transfer_metrics(result.final, 1).error
    ok = err < 1e-3
    report("5b", ok, f"SIQUAD error at T = 5.83 tau_pi: {err:.3e} (<1e-3)", started)
    assert err < 1e-3


def test_criterion_5c_dominance_ordering(two_level_params):
    started = time.monotonic()
    windows = [
        (Axis.AMPLITUDE_SCALE, 0.9, 1.1),
        (Axis.DETUNING_OFFSET, -OMEGA_M, OMEGA_M),
    ]
    fractions = {}
    for axis, lo, hi in windows:
        result = run_sweep(_two_level_sweep(two_level_params, axis, lo, hi, points=41))
        err_si = result.errors_for(ScheduleKind.SIQUAD)
        err_fa = result.errors_for(ScheduleKind.FAQUAD)
        err_pi = result.errors_for(ScheduleKind.FLAT_PI)
        fractions[axis.value] = (
            float(np.mean(err_si <= err_fa)),
            float(np.mean(err_fa <= err_pi)),
        )
    ok = all(
        si_fa >= 0.9 and fa_pi >= 0.9 for si_fa, fa_pi in fractions.values()
    )
    detail = "; ".join(
        f"{axis}: eps_si<=eps_fa at {si_fa:.1%}, eps_fa<=eps_pi at {fa_pi:.1%} (need >=90%)"
        for axis, (si_fa, fa_pi) in fractions.items()
    )
    report("5c", ok, detail, started)
    for axis, (si_fa, fa_pi) in fractions.items():
        assert fa_pi >= 0.9, f"{axis}: FAQUAD vs flat pulse at {fa_pi:.1%}"
        assert si_fa >= 0.9, f"{axis}: SIQUAD vs FAQUAD at {si_fa:.1%}"


def test_criterion_6_three_level_decay_comparison(three_level_runs):
    started = time.monotonic()
    f_si_on = transfer_metrics(three_level_runs["si_gamma_on"].final, 1).fidelity
    f_st_on = transfer_metrics(three_level_runs["stirap_gamma_on"].final, 1).fidelity
    e_si_off = transfer_metrics(three_level_runs["si_gamma_off"].final, 1).error
    e_si_long = transfer_metrics(three_level_runs["si_gamma_off_long"].final, 1).error
    e_si_on = 1.0 - f_si_on

    poor_with_decay = f_si_on < 0.999 and f_st_on < 0.999
    big_improvement = e_si_off <= e_si_on / 10.0
    longer_no_worse = e_si_long <= e_si_off
    ok = poor_with_decay and big_improvement and longer_no_worse
    report(
        "6",
        ok,
        f"gamma-on fidelities: SIQUAD {f_si_on:.6f}, STIRAP {f_st_on:.6f} (<0.999); "
        f"SIQUAD error gamma on/off: {e_si_on:.2e} -> {e_si_off:.2e} (>=10x); "
        f"error at 21.12 ms {e_si_long:.2e} <= {e_si_off:.2e}",
        started,
    )
    assert poor_with_decay
    assert big_improvement
    assert longer_no_worse


def test_criterion_7_adiabatic_elimination_oracle(three_level_runs, lambda_params_no_decay):
    started = time.monotonic()
    full = three_level_runs["si_gamma_off"].populations
    eff = adiabatic_elimination(lambda_params_no_decay, OMEGA0, OMEGA0)
    gap = three_level_gap(lambda_params_no_decay)
    schedule = PulseSchedule(
        kind=ScheduleKind.SIQUAD, duration=T3_SHORT, delta_m=DELTA_M,
        omega_ref=gap, drive_amplitude=eff.omega_eff,
    )
    reduced = evolve(
        EvolveRequest(
            model=ReducedTwoLevelModel(eff),
            schedule=schedule,
            initial=QuantumState.basis(2, 0),
            steps=100_000,
        )
    )
    dev = float(np.max(np.abs(full[:2] - reduced.populations)))
    ok = dev < 5e-3
    report("7", ok, f"full 3x3 vs reduced 2x2 population deviation {dev:.2e} (<5e-3)", started)
    assert dev < 5e-3


def test_criterion_8_preset_determinism(tmp_path):
    started = time.monotonic()
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = cli_main(["sweep", "--config", "fig2b_amplitude", "--out", str(out)])
        assert code == 0
        digests.append(
            hashlib.sha256((out / "fig2b_amplitude.sweep.csv").read_bytes()).hexdigest()
        )
    ok = digests[0] == digests[1]
    report("8", ok, f"sha256 rerun match: {ok} ({digests[0][:12]}...)", started)
    assert ok
