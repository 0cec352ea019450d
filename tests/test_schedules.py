from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from quadsim import (
    PulseSchedule,
    ScheduleKind,
    adiabaticity_report,
    adiabaticity_s,
    adiabaticity_sprime,
    delta_derivative,
    faquad_delta,
    linear_delta,
    rotating_frame_check,
    schedule_table,
    siquad_delta,
    siquad_sprime_value,
    stirap_pulses,
    write_schedule_csv,
)

from conftest import DELTA_M, OMEGA_M, TAU_PI

T = 5.83 * TAU_PI


def sweep_schedule(kind: ScheduleKind, duration: float = T) -> PulseSchedule:
    return PulseSchedule(
        kind=kind,
        duration=duration,
        delta_m=DELTA_M,
        omega_ref=OMEGA_M,
        drive_amplitude=OMEGA_M,
    )


SWEEPS = [ScheduleKind.SIQUAD, ScheduleKind.FAQUAD, ScheduleKind.LINEAR]


@pytest.mark.parametrize("kind", SWEEPS)
class TestSweepShapes:
    def test_boundary_exactness(self, kind):
        sched = sweep_schedule(kind)
        assert abs(sched.delta(0.0) + DELTA_M) < 1e-10 * DELTA_M
        assert abs(sched.delta(T) - DELTA_M) < 1e-10 * DELTA_M
        assert abs(sched.delta(T / 2)) < 1e-10 * DELTA_M

    def test_strictly_monotone(self, kind):
        sched = sweep_schedule(kind)
        values = sched.delta(np.linspace(0.0, T, 2001))
        assert np.all(np.diff(values) > 0)

    def test_antisymmetric_about_midpoint(self, kind):
        sched = sweep_schedule(kind)
        tau = np.linspace(0.0, T / 2, 301)
        left = sched.delta(T / 2 - tau)
        right = sched.delta(T / 2 + tau)
        assert np.max(np.abs(left + right)) < 1e-9 * DELTA_M

    def test_rejects_time_outside_range(self, kind):
        sched = sweep_schedule(kind)
        with pytest.raises(ValueError):
            sched.delta(-0.1 * T)
        with pytest.raises(ValueError):
            sched.delta(1.1 * T)


class TestSiquad:
    def test_midpoint_is_zero(self):
        assert siquad_delta(T / 2, T, DELTA_M, OMEGA_M) == 0.0

    def test_quarter_point_for_equal_scales(self):
        # delta_m = Omega: arctan(1) = pi/4, so delta(T/4) = -Omega*tan(pi/8)
        value = siquad_delta(T / 4, T, OMEGA_M, OMEGA_M)
        assert value == pytest.approx(-OMEGA_M * (math.sqrt(2) - 1), rel=1e-12)

    def test_sprime_value_for_equal_scales(self):
        assert siquad_sprime_value(T, OMEGA_M, OMEGA_M) == pytest.approx(
            math.pi / (4 * T * OMEGA_M), rel=1e-12
        )

    def test_sprime_value_large_range_limit(self):
        assert siquad_sprime_value(T, 1e9 * OMEGA_M, OMEGA_M) == pytest.approx(
            math.pi / (2 * T * OMEGA_M), rel=1e-6
        )

    def test_sprime_value_cross_checked_against_finite_difference(self):
        # reference scenario: s' = arctan(delta_m/Omega)/(T*Omega) ~ 0.08494
        sched = sweep_schedule(ScheduleKind.SIQUAD)
        closed = siquad_sprime_value(T, DELTA_M, OMEGA_M)
        assert closed == pytest.approx(0.0849443756, rel=1e-8)
        t0 = 0.3 * T
        h = 1e-7 * T
        slope = (sched.delta(t0 + h) - sched.delta(t0 - h)) / (2 * h)
        fd = adiabaticity_sprime(sched.delta(t0), slope, OMEGA_M)
        assert fd == pytest.approx(closed, rel=1e-6)

    def test_constant_sprime_along_schedule(self):
        sched = sweep_schedule(ScheduleKind.SIQUAD)
        times = np.linspace(0.0, T, 10_000)
        sp = adiabaticity_sprime(sched.delta(times), delta_derivative(sched, times), OMEGA_M)
        spread = (sp.max() - sp.min()) / sp.mean()
        assert spread < 1e-9


class TestFaquad:
    def test_boundary_values(self):
        assert faquad_delta(T / 2, T, DELTA_M, OMEGA_M) == 0.0
        assert faquad_delta(T, T, DELTA_M, OMEGA_M) == pytest.approx(DELTA_M, rel=1e-10)

    def test_constant_s_along_schedule(self):
        sched = sweep_schedule(ScheduleKind.FAQUAD)
        times = np.linspace(0.0, T, 10_000)
        s = adiabaticity_s(sched.delta(times), delta_derivative(sched, times), OMEGA_M)
        spread = (s.max() - s.min()) / s.mean()
        assert spread < 1e-8

    def test_constant_s_with_finite_difference_derivative(self):
        # interior grid: the FD stencil loses accuracy only in the steep tails
        sched = sweep_schedule(ScheduleKind.FAQUAD)
        times = np.linspace(0.01 * T, 0.99 * T, 2001)
        h = 1e-6 * T
        slope = (sched.delta(times + h) - sched.delta(times - h)) / (2 * h)
        s = adiabaticity_s(sched.delta(times), slope, OMEGA_M)
        spread = (s.max() - s.min()) / s.mean()
        assert spread < 1e-8

    def test_matches_constant_s_ode_oracle(self):
        # independent oracle: integrate d(delta)/dt = 2c(delta^2+Omega^2)^(3/2)/Omega
        # with the same constant and boundary delta(0) = -delta_m
        c = DELTA_M / (T * OMEGA_M * math.hypot(DELTA_M, OMEGA_M))

        def rhs(t, y):
            return 2 * c * (y[0] ** 2 + OMEGA_M**2) ** 1.5 / OMEGA_M

        sol = solve_ivp(
            rhs,
            (0.0, T),
            [-DELTA_M],
            method="DOP853",
            rtol=1e-12,
            atol=OMEGA_M * 1e-10,
            dense_output=True,
        )
        times = np.linspace(0.0, T, 801)
        ode = sol.sol(times)[0]
        closed = faquad_delta(times, T, DELTA_M, OMEGA_M)
        rel = np.abs(closed - ode) / (np.abs(ode) + OMEGA_M)
        assert np.max(rel) < 1e-6


class TestLinear:
    def test_endpoint_and_midpoint_values(self):
        assert linear_delta(0.0, T, DELTA_M) == -DELTA_M
        assert linear_delta(T / 2, T, DELTA_M) == 0.0
        assert linear_delta(0.75 * T, T, DELTA_M) == pytest.approx(DELTA_M / 2, rel=1e-12)


class TestStirap:
    OMEGA0 = 2 * math.pi * 5e6
    T3 = 2.85e-3

    def test_stokes_peak_value(self):
        tau_sep, sigma = self.T3 / 5, self.T3 / 8
        _, omega_s = stirap_pulses(
            (self.T3 - tau_sep) / 2, self.T3, self.OMEGA0, tau_sep, sigma
        )
        assert omega_s == pytest.approx(self.OMEGA0, rel=1e-15)

    def test_pump_mirrors_stokes(self):
        tau_sep, sigma = self.T3 / 5, self.T3 / 8
        t = np.linspace(0.0, self.T3, 401)
        omega_p, _ = stirap_pulses(t, self.T3, self.OMEGA0, tau_sep, sigma)
        _, omega_s_rev = stirap_pulses(self.T3 - t, self.T3, self.OMEGA0, tau_sep, sigma)
        assert np.max(np.abs(omega_p - omega_s_rev)) < 1e-12 * self.OMEGA0

    def test_mixing_angle_rises_monotonically(self):
        tau_sep, sigma = self.T3 / 5, self.T3 / 8
        t = np.linspace(self.T3 / 2 - 2 * sigma, self.T3 / 2 + 2 * sigma, 501)
        omega_p, omega_s = stirap_pulses(t, self.T3, self.OMEGA0, tau_sep, sigma)
        angle = np.arctan2(omega_p, omega_s)
        assert np.all(np.diff(angle) > 0)
        assert angle[0] < 0.25
        assert angle[-1] > math.pi / 2 - 0.25

    def test_counterintuitive_order(self):
        sched = PulseSchedule(
            kind=ScheduleKind.STIRAP_GAUSSIAN, duration=self.T3, drive_amplitude=self.OMEGA0
        )
        early = 0.25 * self.T3
        omega_p, omega_s = sched.pulses(early)
        assert omega_s > omega_p

    def test_stokes_peak_from_drive_amplitude_s(self):
        # LambdaParams.omega_s0 reaches the schedule as drive_amplitude_s
        sched = PulseSchedule(
            kind=ScheduleKind.STIRAP_GAUSSIAN,
            duration=self.T3,
            drive_amplitude=self.OMEGA0,
            drive_amplitude_s=0.5 * self.OMEGA0,
        )
        omega_p, _ = sched.pulses((self.T3 + sched.tau_sep) / 2)
        _, omega_s = sched.pulses((self.T3 - sched.tau_sep) / 2)
        assert omega_p == self.OMEGA0 and omega_s == 0.5 * self.OMEGA0

    def test_defaults_resolved_from_duration(self):
        sched = PulseSchedule(
            kind=ScheduleKind.STIRAP_GAUSSIAN, duration=self.T3, drive_amplitude=self.OMEGA0
        )
        assert sched.tau_sep == pytest.approx(self.T3 / 5)
        assert sched.sigma == pytest.approx(self.T3 / 8)

    def test_invalid_shape_parameters(self):
        with pytest.raises(ValueError):
            stirap_pulses(0.0, self.T3, self.OMEGA0, self.T3 / 5, 0.0)
        with pytest.raises(ValueError):
            stirap_pulses(0.0, self.T3, self.OMEGA0, 2 * self.T3, self.T3 / 8)


class TestAdiabaticityFunctionals:
    def test_zero_slope_gives_zero(self):
        assert adiabaticity_s(DELTA_M, 0.0, OMEGA_M) == 0.0
        assert adiabaticity_sprime(DELTA_M, 0.0, OMEGA_M) == 0.0

    def test_values_at_zero_detuning(self):
        slope = 2e9
        assert adiabaticity_s(0.0, slope, OMEGA_M) == pytest.approx(
            0.5 * slope / OMEGA_M**2, rel=1e-12
        )
        assert adiabaticity_sprime(0.0, slope, OMEGA_M) == pytest.approx(
            0.5 * slope / OMEGA_M**2, rel=1e-12
        )

    def test_s_never_exceeds_sprime(self):
        rng = np.random.default_rng(3)
        deltas = rng.uniform(-1e8, 1e8, 500)
        slopes = rng.uniform(0, 1e15, 500)
        omegas = rng.uniform(1e3, 1e7, 500)
        for d, sl, om in zip(deltas, slopes, omegas):
            assert adiabaticity_s(d, sl, om) <= adiabaticity_sprime(d, sl, om) * (1 + 1e-12)

    def test_report_pointwise_s_below_sprime(self):
        for kind in SWEEPS:
            rep = adiabaticity_report(sweep_schedule(kind), 2001)
            assert np.all(rep.samples[:, 1] <= rep.samples[:, 2] * (1 + 1e-12))
            assert rep.max_s <= rep.max_s_prime * (1 + 1e-12)

    def test_report_trivial_for_flat_schedules(self):
        sched = PulseSchedule(
            kind=ScheduleKind.FLAT_PI, duration=TAU_PI, drive_amplitude=OMEGA_M
        )
        rep = adiabaticity_report(sched, 101)
        assert rep.max_s == 0.0 and rep.max_s_prime == 0.0


class TestDeltaDerivative:
    def test_linear_is_constant(self):
        sched = sweep_schedule(ScheduleKind.LINEAR)
        times = np.linspace(0.0, T, 11)
        assert delta_derivative(sched, times) == pytest.approx(
            np.full(11, 2 * DELTA_M / T), rel=1e-12
        )

    def test_siquad_midpoint_slope(self):
        sched = sweep_schedule(ScheduleKind.SIQUAD)
        expected = 2 * OMEGA_M * math.atan2(DELTA_M, OMEGA_M) / T
        assert delta_derivative(sched, T / 2) == pytest.approx(expected, rel=1e-12)

    def test_faquad_slope_symmetric(self):
        sched = sweep_schedule(ScheduleKind.FAQUAD)
        tau = np.linspace(0.0, 0.4 * T, 41)
        left = delta_derivative(sched, T / 2 - tau)
        right = delta_derivative(sched, T / 2 + tau)
        assert np.max(np.abs(left - right) / right) < 1e-12

    @pytest.mark.parametrize("kind", [ScheduleKind.SIQUAD, ScheduleKind.FAQUAD])
    def test_analytic_matches_finite_difference(self, kind):
        sched = sweep_schedule(kind)
        times = np.linspace(0.01 * T, 0.99 * T, 501)
        h = 1e-6 * T
        fd = (sched.delta(times + h) - sched.delta(times - h)) / (2 * h)
        analytic = delta_derivative(sched, times)
        assert np.max(np.abs(analytic - fd) / np.abs(analytic)) < 1e-6

    def test_flat_schedule_has_zero_slope(self):
        sched = PulseSchedule(
            kind=ScheduleKind.FLAT_PI, duration=TAU_PI, drive_amplitude=OMEGA_M
        )
        assert np.all(delta_derivative(sched, np.linspace(0, TAU_PI, 7)) == 0.0)


class TestRotatingFrame:
    def test_static_case_has_no_coupling(self):
        gap, off = rotating_frame_check(0.3 * OMEGA_M, 0.0, OMEGA_M)
        assert off == 0.0
        assert gap == pytest.approx(math.hypot(0.3 * OMEGA_M, OMEGA_M), rel=1e-12)

    def test_resonant_point(self):
        slope = 0.05 * OMEGA_M**2
        gap, off = rotating_frame_check(0.0, slope, OMEGA_M)
        assert gap == pytest.approx(OMEGA_M, rel=1e-9)
        assert off == pytest.approx(0.5 * slope / OMEGA_M, rel=1e-9)

    def test_ratio_reproduces_standard_functional(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            delta = rng.uniform(-3, 3) * OMEGA_M
            slope = rng.uniform(0.001, 0.2) * OMEGA_M**2
            gap, off = rotating_frame_check(delta, slope, OMEGA_M)
            assert off / gap == pytest.approx(
                float(adiabaticity_s(delta, slope, OMEGA_M)), rel=1e-7
            )


class TestScheduleContainer:
    def test_sweep_kinds_require_parameters(self):
        with pytest.raises(ValueError):
            PulseSchedule(kind=ScheduleKind.SIQUAD, duration=T, delta_m=0.0, omega_ref=OMEGA_M)
        with pytest.raises(ValueError):
            PulseSchedule(kind=ScheduleKind.FAQUAD, duration=T, delta_m=DELTA_M, omega_ref=0.0)
        with pytest.raises(ValueError):
            PulseSchedule(
                kind=ScheduleKind.LINEAR, duration=0.0, delta_m=DELTA_M, omega_ref=OMEGA_M
            )

    def test_with_duration_rescales(self):
        sched = sweep_schedule(ScheduleKind.SIQUAD).with_duration(2 * T)
        assert sched.duration == 2 * T
        assert abs(sched.delta(2 * T) - DELTA_M) < 1e-10 * DELTA_M

    def test_with_duration_rescales_stirap_timings(self):
        sched = PulseSchedule(
            kind=ScheduleKind.STIRAP_GAUSSIAN, duration=1e-3, drive_amplitude=OMEGA_M
        ).with_duration(2e-3)
        assert sched.tau_sep == pytest.approx(2e-3 / 5)
        assert sched.sigma == pytest.approx(2e-3 / 8)

    def test_constant_pulse_pair(self):
        sched = sweep_schedule(ScheduleKind.SIQUAD)
        omega_p, omega_s = sched.pulses(np.linspace(0, T, 5))
        assert np.all(omega_p == OMEGA_M) and np.all(omega_s == OMEGA_M)


class TestScheduleExport:
    def test_table_columns(self):
        table = schedule_table(sweep_schedule(ScheduleKind.SIQUAD), 101)
        assert table.shape == (101, 4)
        assert table[0, 1] == pytest.approx(-DELTA_M, rel=1e-10)
        assert np.all(table[:, 2] == OMEGA_M)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "schedule.csv"
        write_schedule_csv(sweep_schedule(ScheduleKind.FAQUAD), path, 51)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,delta_rad_s,omega_p_rad_s,omega_s_rad_s"
        assert len(lines) == 52
        last = [float(x) for x in lines[-1].split(",")]
        assert last[1] == pytest.approx(DELTA_M, rel=1e-9)

    @pytest.mark.parametrize("kind", [ScheduleKind.FAQUAD, ScheduleKind.STIRAP_GAUSSIAN])
    def test_csv_bytes_match_per_value_rendering(self, tmp_path, kind):
        schedule = sweep_schedule(kind)
        path = tmp_path / "schedule.csv"
        write_schedule_csv(schedule, path)
        rows = schedule_table(schedule).tolist()
        body = "".join(",".join(format(x, ".15e") for x in row) + "\n" for row in rows)
        assert path.read_bytes() == ("t_s,delta_rad_s,omega_p_rad_s,omega_s_rad_s\n" + body).encode()
