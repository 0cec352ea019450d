from __future__ import annotations

import math
import os

import numpy as np
import pytest

from quadsim import (
    AmplitudeMode,
    Axis,
    AxisWindow,
    RunSpec,
    ScheduleKind,
    SweepError,
    SweepSpec,
    compare_protocols,
    run_protocol,
    run_sweep,
    sweeps,
    transfer_metrics,
    write_sweep_csv,
)

from conftest import DELTA_M, OMEGA_M, TAU_PI

T_SI = 5.83 * TAU_PI
T_FA = 6.33 * TAU_PI


def two_level_spec(two_level_params, **overrides) -> SweepSpec:
    defaults = dict(
        protocols=(ScheduleKind.SIQUAD, ScheduleKind.FLAT_PI),
        axis=Axis.AMPLITUDE_SCALE,
        lo=0.9,
        hi=1.1,
        points=5,
        params=two_level_params,
        delta_m=DELTA_M,
        durations={ScheduleKind.SIQUAD: T_SI, ScheduleKind.FLAT_PI: TAU_PI},
        steps=5000,
    )
    defaults.update(overrides)
    window = AxisWindow(*(defaults.pop(key) for key in ("axis", "lo", "hi", "points")))
    return SweepSpec(RunSpec(**defaults), window)


class TestSpecValidation:
    def test_requires_ordered_range(self, two_level_params):
        with pytest.raises(ValueError):
            two_level_spec(two_level_params, lo=1.1, hi=0.9)

    def test_requires_two_points(self, two_level_params):
        with pytest.raises(ValueError):
            two_level_spec(two_level_params, points=1)

    def test_multiplicative_amplitude_window(self, two_level_params):
        with pytest.raises(ValueError):
            two_level_spec(two_level_params, lo=-0.1, hi=1.0)
        with pytest.raises(ValueError):
            two_level_spec(two_level_params, lo=0.5, hi=2.5)

    def test_requires_positive_durations(self, two_level_params):
        with pytest.raises(ValueError):
            two_level_spec(two_level_params, durations={ScheduleKind.SIQUAD: T_SI})

    def test_requires_protocols(self, two_level_params):
        with pytest.raises(ValueError):
            two_level_spec(two_level_params, protocols=())

    def test_stirap_in_two_level_fails_at_run(self, two_level_params):
        spec = two_level_spec(
            two_level_params,
            protocols=(ScheduleKind.STIRAP_GAUSSIAN,),
            durations={ScheduleKind.STIRAP_GAUSSIAN: TAU_PI},
        )
        with pytest.raises(SweepError, match="stirap"):
            run_sweep(spec)


class TestRunSweep:
    def test_row_count_and_order(self, two_level_params):
        result = run_sweep(two_level_spec(two_level_params))
        assert len(result.rows) == 10
        assert [r.protocol for r in result.rows[:5]] == ["siquad"] * 5
        values = [r.axis_value for r in result.rows[:5]]
        assert values == sorted(values)
        assert result.rows[0].error == pytest.approx(1 - result.rows[0].fidelity, abs=1e-15)

    def test_unit_scale_matches_direct_run(self, two_level_params):
        result = run_sweep(two_level_spec(two_level_params, lo=0.9, hi=1.1, points=3))
        center = [r for r in result.rows if r.protocol == "siquad"][1]
        assert center.axis_value == 1.0
        direct = run_protocol(
            RunSpec(two_level_params, delta_m=DELTA_M, steps=5000),
            ScheduleKind.SIQUAD,
            T_SI,
        )
        assert center.fidelity == transfer_metrics(direct.final, 1).fidelity

    def test_duration_scan_matches_rabi_formula(self, two_level_params):
        spec = two_level_spec(
            two_level_params,
            protocols=(ScheduleKind.FLAT_PI,),
            axis=Axis.DURATION,
            lo=0.0,
            hi=10 * TAU_PI,
            points=21,
            durations={},
            steps=2000,
        )
        result = run_sweep(spec)
        for row in result.rows:
            expected = math.sin(OMEGA_M * row.axis_value / 2) ** 2
            assert row.fidelity == pytest.approx(expected, abs=1e-9)

    def test_zero_duration_row_is_identity(self, two_level_params):
        spec = two_level_spec(
            two_level_params,
            protocols=(ScheduleKind.SIQUAD,),
            axis=Axis.DURATION,
            lo=0.0,
            hi=2 * TAU_PI,
            points=3,
            durations={},
        )
        rows = run_sweep(spec).rows
        assert rows[0].axis_value == 0.0
        assert rows[0].fidelity == 0.0 and rows[0].error == 1.0 and rows[0].steps == 0

    def test_detuning_error_symmetric(self, two_level_params):
        spec = two_level_spec(
            two_level_params,
            protocols=(ScheduleKind.SIQUAD,),
            axis=Axis.DETUNING_OFFSET,
            lo=-OMEGA_M,
            hi=OMEGA_M,
            points=9,
            steps=20_000,
        )
        errors = run_sweep(spec).errors_for(ScheduleKind.SIQUAD)
        assert np.max(np.abs(errors - errors[::-1])) < 1e-6

    def test_additive_amplitude_mode_matches_equivalent_scale(self, two_level_params):
        shift = 0.05 * OMEGA_M
        additive = run_sweep(
            two_level_spec(
                two_level_params,
                protocols=(ScheduleKind.FLAT_PI,),
                axis=Axis.AMPLITUDE_SCALE,
                amplitude_mode=AmplitudeMode.ADDITIVE,
                lo=-shift,
                hi=shift,
                points=3,
                durations={ScheduleKind.FLAT_PI: TAU_PI},
            )
        ).rows
        for row in additive:
            scaled = run_protocol(
                RunSpec(two_level_params, steps=5000),
                ScheduleKind.FLAT_PI,
                TAU_PI,
                amplitude_scale=1.0 + row.axis_value / OMEGA_M,
            )
            assert row.fidelity == pytest.approx(
                transfer_metrics(scaled.final, 1).fidelity, abs=1e-12
            )

    def test_smooth_error_inside_amplitude_window(self, two_level_params):
        # adjacent points of an adiabatic protocol's error curve never jump
        # by more than 10x inside the +-5% window
        spec = two_level_spec(
            two_level_params,
            protocols=(ScheduleKind.SIQUAD, ScheduleKind.FAQUAD),
            lo=0.95,
            hi=1.05,
            points=41,
            durations={ScheduleKind.SIQUAD: T_SI, ScheduleKind.FAQUAD: T_FA},
            steps=20_000,
        )
        result = run_sweep(spec)
        for protocol in (ScheduleKind.SIQUAD, ScheduleKind.FAQUAD):
            errors = result.errors_for(protocol)
            ratios = np.maximum(errors[1:], errors[:-1]) / np.minimum(errors[1:], errors[:-1])
            assert np.max(ratios) < 10.0

    def test_determinism(self, two_level_params):
        spec = two_level_spec(two_level_params)
        first = run_sweep(spec).rows
        second = run_sweep(spec).rows
        assert first == second

    def test_parallel_equals_serial(self, two_level_params, monkeypatch):
        spec = two_level_spec(two_level_params)
        serial = run_sweep(spec).rows
        monkeypatch.setenv("QUAD_WORKERS", "2")
        parallel = run_sweep(spec).rows
        assert serial == parallel

    def test_pool_capped_by_cpu_count_and_tasks(self, two_level_params, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.delenv("QUAD_WORKERS", raising=False)
        spec = two_level_spec(two_level_params, steps=200)  # 2 protocols x 5 points
        serial = run_sweep(spec).rows
        monkeypatch.setattr(sweeps, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setenv("QUAD_WORKERS", "64")
        for cpus in (3, 256, None):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert run_sweep(spec).rows == serial
        assert sizes == [3, 10]  # an unknown cpu count means one worker: no pool

    @pytest.mark.parametrize("raw", ["abc", "-3", "0", "2.5"])
    def test_bad_worker_count_rejected(self, two_level_params, monkeypatch, raw):
        monkeypatch.setenv("QUAD_WORKERS", raw)
        with pytest.raises(ValueError, match="QUAD_WORKERS"):
            run_sweep(two_level_spec(two_level_params))

    def test_metadata_echoes_spec(self, two_level_params):
        spec = two_level_spec(two_level_params)
        meta = run_sweep(spec).metadata
        assert meta["scenario"] == "two_level"
        assert meta["protocols"] == ["siquad", "flat_pi"]
        assert meta["lo"] == 0.9 and meta["hi"] == 1.1 and meta["points"] == 5
        assert meta["params"] == {"omega_m": OMEGA_M}
        assert meta["steps"] == 5000

    def test_failure_identifies_axis_point(self, two_level_params):
        spec = two_level_spec(two_level_params, delta_m=0.0)
        with pytest.raises(SweepError, match="amplitude_scale=0.9"):
            run_sweep(spec)


class TestSweepCsv:
    def test_header_and_rows(self, two_level_params, tmp_path):
        result = run_sweep(two_level_spec(two_level_params))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "protocol,scenario,axis,axis_value,T_s,fidelity,error,"
            "final_norm_sq,method,steps"
        )
        assert len(lines) == 11
        fields = lines[1].split(",")
        assert fields[0] == "siquad" and fields[-2] == "piecewise_expm"
        assert float(fields[3]) == 0.9


class TestCompareProtocols:
    # 3 points sample the nominal scale 1.0; 4 points miss it, so the
    # on-axis value comes from a separate nominal run
    @pytest.mark.parametrize("points", [3, 4])
    def test_single_protocol_degenerates_to_metrics(self, two_level_params, points):
        window = AxisWindow(Axis.AMPLITUDE_SCALE, 0.99, 1.01, points=points)
        result = compare_protocols(
            RunSpec(two_level_params, durations={ScheduleKind.FLAT_PI: TAU_PI}, steps=5000),
            [window],
        )
        assert result.dominance == []
        assert len(result.summaries) == 1
        direct = run_protocol(RunSpec(two_level_params, steps=5000), ScheduleKind.FLAT_PI, TAU_PI)
        assert result.summaries[0].on_axis_fidelity == transfer_metrics(direct.final, 1).fidelity

    def test_on_axis_reuses_nominal_rows(self, two_level_params, monkeypatch):
        monkeypatch.delenv("QUAD_WORKERS", raising=False)
        calls = []
        evolve = sweeps.evolve

        def counting_evolve(req):
            calls.append(req)
            return evolve(req)

        monkeypatch.setattr(sweeps, "evolve", counting_evolve)
        windows = [
            AxisWindow(Axis.AMPLITUDE_SCALE, 0.9, 1.1, points=3),
            AxisWindow(Axis.DETUNING_OFFSET, -OMEGA_M, OMEGA_M, points=3),
        ]
        durations = {ScheduleKind.SIQUAD: T_SI, ScheduleKind.FLAT_PI: TAU_PI}
        result = compare_protocols(
            RunSpec(two_level_params, durations=durations, delta_m=DELTA_M, steps=2000), windows
        )
        assert len(calls) == 12  # 2 protocols x 2 windows x 3 points, no extra runs
        nominal = {Axis.AMPLITUDE_SCALE: 1.0, Axis.DETUNING_OFFSET: 0.0}
        for summary in result.summaries:
            axis = Axis(summary.axis)
            (row,) = [
                r
                for r in result.sweeps[axis].rows
                if r.protocol == summary.protocol and r.axis_value == nominal[axis]
            ]
            assert summary.on_axis_fidelity == row.fidelity

    def test_dominance_table_structure(self, two_level_params):
        # 41-point windows: the flat pulse only wins in a sliver around the
        # exact on-axis point, so the sweep protocol clears the 90% bar
        windows = [
            AxisWindow(Axis.AMPLITUDE_SCALE, 0.9, 1.1, points=41),
            AxisWindow(Axis.DETUNING_OFFSET, -OMEGA_M, OMEGA_M, points=41),
        ]
        durations = {ScheduleKind.SIQUAD: T_SI, ScheduleKind.FLAT_PI: TAU_PI}
        result = compare_protocols(
            RunSpec(two_level_params, durations=durations, delta_m=DELTA_M, steps=20_000), windows
        )
        assert len(result.summaries) == 4  # 2 protocols x 2 axes
        assert len(result.dominance) == 4  # 2 ordered pairs x 2 axes
        si_vs_pi = [
            d
            for d in result.dominance
            if d.protocol_a == "siquad" and d.protocol_b == "flat_pi"
        ]
        # the flat pulse loses badly off-center on both axes
        assert all(d.dominates for d in si_vs_pi)
        text = result.to_text()
        assert "worst-case error" in text and "dominance" in text
