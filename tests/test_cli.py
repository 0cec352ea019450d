from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import quadsim
from quadsim import Axis, Method, ScheduleKind, angular
from quadsim.cli import main
from quadsim.config import ConfigError, load_config, load_config_text, parse_config_text, preset_names

from conftest import TAU_PI

TWO_LEVEL_BASE = """
scenario = two_level
protocol = siquad
omega_m_hz = 150e3
delta_m_hz = 10e6
T_s = 1.9433333333333333e-05
steps = 4000
"""


class TestParser:
    def test_comments_and_sections(self):
        main_map, sweep = parse_config_text(
            "# header\nscenario = two_level  # inline\n\n[sweep]\naxis = duration\n"
        )
        assert main_map == {"scenario": "two_level"}
        assert sweep == {"axis": "duration"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key: steps"):
            parse_config_text("steps = 1\nsteps = 2\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text("[plotting]\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("scenario two_level\n")


class TestLoadConfig:
    def test_minimal_two_level(self):
        cfg = load_config_text(TWO_LEVEL_BASE)
        assert cfg.run.protocols == (ScheduleKind.SIQUAD,)
        assert cfg.run.params.omega_m == angular(150e3)
        assert cfg.run.delta_m == angular(10e6)
        assert cfg.run.durations[ScheduleKind.SIQUAD] == pytest.approx(5.83 * TAU_PI)
        assert cfg.run.steps == 4000
        assert cfg.run.method is Method.PIECEWISE_EXPM

    def test_missing_delta_m_named_in_error(self):
        text = TWO_LEVEL_BASE.replace("delta_m_hz = 10e6\n", "")
        with pytest.raises(ConfigError, match="delta_m_hz"):
            load_config_text(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key: omega_q_hz"):
            load_config_text(TWO_LEVEL_BASE + "omega_q_hz = 1\n")

    def test_stirap_needs_three_levels(self):
        text = TWO_LEVEL_BASE.replace("protocol = siquad", "protocol = stirap")
        with pytest.raises(ConfigError, match="three_level"):
            load_config_text(text)

    def test_protocol_alias_pi(self):
        text = TWO_LEVEL_BASE.replace("protocol = siquad", "protocol = pi").replace(
            "delta_m_hz = 10e6\n", ""
        )
        cfg = load_config_text(text)
        assert cfg.run.protocols == (ScheduleKind.FLAT_PI,)

    def test_conflicting_duration_keys(self):
        with pytest.raises(ConfigError, match="conflicting duration keys"):
            load_config_text(TWO_LEVEL_BASE + "T_siquad_s = 2e-5\n")

    def test_per_protocol_duration_for_unlisted_protocol(self):
        text = TWO_LEVEL_BASE.replace("T_s = 1.9433333333333333e-05", "T_faquad_s = 2e-5")
        with pytest.raises(ConfigError, match="not listed"):
            load_config_text(text)

    def test_missing_duration_named(self):
        text = TWO_LEVEL_BASE.replace("T_s = 1.9433333333333333e-05\n", "")
        with pytest.raises(ConfigError, match="T_siquad_s"):
            load_config_text(text)

    def test_three_level_requires_delta_big(self):
        text = """
scenario = three_level
protocol = stirap
omega0_hz = 5e6
T_s = 2.85e-3
"""
        with pytest.raises(ConfigError, match="delta_big_hz"):
            load_config_text(text)

    def test_detuning_axis_converted_to_angular(self):
        text = TWO_LEVEL_BASE + "\n[sweep]\naxis = detuning_offset\nlo = -150e3\nhi = 150e3\npoints = 5\n"
        cfg = load_config_text(text)
        assert cfg.sweep.window.axis is Axis.DETUNING_OFFSET
        assert cfg.sweep.window.lo == pytest.approx(-angular(150e3))
        assert cfg.sweep.window.hi == pytest.approx(angular(150e3))

    def test_additive_compare_window_read_in_hz(self):
        text = TWO_LEVEL_BASE + "amplitude_mode = additive\n"
        window = load_config_text(text).compare[0]
        assert (window.lo, window.hi) == (-0.2 * angular(150e3), 0.2 * angular(150e3))
        text += "compare_amp_lo = -10e3\ncompare_amp_hi = 20e3\n"
        window = load_config_text(text).compare[0]
        assert (window.lo, window.hi) == (angular(-10e3), angular(20e3))

    def test_duration_axis_does_not_need_t_key(self):
        text = TWO_LEVEL_BASE.replace("T_s = 1.9433333333333333e-05\n", "")
        text += "\n[sweep]\naxis = duration\nlo = 0\nhi = 3.3e-5\npoints = 5\n"
        cfg = load_config_text(text)
        assert cfg.sweep.window.axis is Axis.DURATION

    def test_duration_axis_from_zero_bounds_tau_sep_by_first_positive_point(self):
        text = """
scenario = three_level
protocol = stirap
omega0_hz = 5e6
delta_big_hz = 10e9
tau_sep_s = 1e-4

[sweep]
axis = duration
lo = 0
hi = 1e-3
points = 3
"""
        cfg = load_config_text(text)
        assert cfg.run.tau_sep == 1e-4
        assert cfg.sweep.window.lo == 0.0
        with pytest.raises(ConfigError, match="tau_sep_s"):
            load_config_text(text.replace("tau_sep_s = 1e-4", "tau_sep_s = 5e-4"))

    def test_bad_number_names_key(self):
        with pytest.raises(ConfigError, match="omega_m_hz"):
            load_config_text(TWO_LEVEL_BASE.replace("150e3", "fast"))

    def test_presets_all_load(self):
        names = preset_names()
        assert names == [
            "fig2a_time_scan",
            "fig2b_amplitude",
            "fig2c_detuning",
            "fig3_gamma_off_long",
            "fig3_gamma_off_short",
            "fig3_gamma_on_short",
        ]
        for name in names:
            cfg = load_config(name)
            assert cfg.sweep is not None

    def test_unknown_preset_lists_options(self):
        with pytest.raises(ConfigError, match="fig2a_time_scan"):
            load_config("not_a_preset")


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSimulateCommand:
    def test_pi_pulse_run(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            """
scenario = two_level
protocol = pi
omega_m_hz = 150e3
T_s = 3.3333333333333333e-06
steps = 2000
""",
        )
        code = main(["simulate", "--config", cfg_path, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "fidelity = " in out and "error = " in out
        error = float(out.split("error = ")[1].splitlines()[0])
        assert error < 1e-8
        metrics = (tmp_path / "run.metrics.csv").read_text().splitlines()
        assert metrics[0].startswith("scenario,protocol,T_s,fidelity,error,final_norm_sq,pop_1")
        fields = metrics[1].split(",")
        assert fields[0] == "two_level" and fields[1] == "flat_pi"
        assert float(fields[3]) > 1 - 1e-8

    def test_trajectory_flag(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            """
scenario = two_level
protocol = pi
omega_m_hz = 150e3
T_s = 3.3333333333333333e-06
steps = 500
""",
        )
        code = main(["simulate", "--config", cfg_path, "--out", str(tmp_path), "--trajectory"])
        assert code == 0
        lines = (tmp_path / "run.trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("t_s,re_1,im_1")
        assert len(lines) == 502

    def test_trajectory_leaves_metrics_unchanged(self, tmp_path):
        cfg_path = write_config(tmp_path, TWO_LEVEL_BASE)
        plain, traced = tmp_path / "plain", tmp_path / "traced"
        assert main(["simulate", "--config", cfg_path, "--out", str(plain)]) == 0
        assert main(["simulate", "--config", cfg_path, "--out", str(traced), "--trajectory"]) == 0
        metrics = (traced / "run.metrics.csv").read_bytes()
        assert metrics == (plain / "run.metrics.csv").read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, TWO_LEVEL_BASE.replace("delta_m_hz = 10e6\n", ""))
        code = main(["simulate", "--config", cfg_path, "--out", str(tmp_path)])
        assert code == 1
        assert "delta_m_hz" in capsys.readouterr().err

    def test_integration_failure_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            """
scenario = three_level
protocol = siquad
omega0_hz = 5e6
delta_big_hz = 10e9
delta_m_hz = 10e6
T_s = 2.85e-3
steps = 2000
method = rk4
""",
        )
        code = main(["simulate", "--config", cfg_path, "--out", str(tmp_path)])
        assert code == 2
        assert "integration failure" in capsys.readouterr().err

    def test_requires_single_protocol(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path, TWO_LEVEL_BASE.replace("protocol = siquad", "protocol = siquad, pi")
        )
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path)]) == 1

    def test_three_level_with_decay_reports_poor_fidelity(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            """
scenario = three_level
protocol = siquad
omega0_hz = 5e6
delta_big_hz = 10e9
gamma_hz = 5.6e6
delta_m_hz = 10e6
T_s = 2.85e-3
steps = 200000
""",
            "lam.cfg",
        )
        code = main(["simulate", "--config", cfg_path, "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        fidelity = float(out.split("fidelity = ")[1].splitlines()[0])
        assert fidelity < 0.999
        assert fidelity > 0.9


SWEEP_CFG = """
scenario = two_level
protocol = siquad, pi
omega_m_hz = 150e3
delta_m_hz = 10e6
T_siquad_s = 1.9433333333333333e-05
T_flat_pi_s = 3.3333333333333333e-06
steps = 3000

[sweep]
axis = amplitude_scale
lo = 0.9
hi = 1.1
points = 5
"""


REFUSED_STEP = """
scenario = three_level
protocol = stirap
omega0_hz = 1e9
delta_big_hz = 1e9
T_s = 1e-2
steps = 10

[sweep]
axis = amplitude_scale
lo = 0.9
hi = 1.1
points = 3
"""


@pytest.mark.parametrize("command", ["simulate", "sweep", "compare"])
def test_refused_step_map_is_integration_failure(tmp_path, capsys, command):
    # the step exponential refuses maps of Frobenius norm about 7.8e6
    # (ValueError): every command reports that as a failed run of the
    # protocol, with exit 2 and no traceback
    cfg_path = write_config(tmp_path, REFUSED_STEP)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("integration failure:") and "protocol=stirap_gaussian" in err
    assert "largest Frobenius norm" in err and "Traceback" not in err


class TestSweepCommand:
    def test_csv_rows_and_meta(self, tmp_path):
        cfg_path = write_config(tmp_path, SWEEP_CFG, "scan.cfg")
        code = main(["sweep", "--config", cfg_path, "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "scan.sweep.csv").read_text().splitlines()
        assert len(lines) == 11  # header + 2 protocols x 5 points
        meta = json.loads((tmp_path / "scan.meta.json").read_text())
        assert meta["config"]["main"]["omega_m_hz"] == "150e3"
        assert meta["points"] == 5
        assert "wall_time_s" not in meta

    def test_plot_is_wellformed_svg(self, tmp_path):
        cfg_path = write_config(tmp_path, SWEEP_CFG, "scan.cfg")
        code = main(["sweep", "--config", cfg_path, "--out", str(tmp_path), "--plot"])
        assert code == 0
        svg_path = tmp_path / "scan.sweep.svg"
        root = ET.parse(svg_path).getroot()
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2

    def test_duration_axis_plots_fidelity(self, tmp_path):
        cfg = """
scenario = two_level
protocol = pi
omega_m_hz = 150e3
steps = 2000

[sweep]
axis = duration
lo = 0.0
hi = 6.7e-6
points = 7
"""
        cfg_path = write_config(tmp_path, cfg, "tscan.cfg")
        code = main(["sweep", "--config", cfg_path, "--out", str(tmp_path), "--plot"])
        assert code == 0
        svg = (tmp_path / "tscan.sweep.svg").read_text()
        assert "transfer fidelity" in svg and "operation time" in svg

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, SWEEP_CFG, "scan.cfg")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["sweep", "--config", cfg_path, "--out", str(out_a)]) == 0
        assert main(["sweep", "--config", cfg_path, "--out", str(out_b)]) == 0
        digest_a = hashlib.sha256((out_a / "scan.sweep.csv").read_bytes()).hexdigest()
        digest_b = hashlib.sha256((out_b / "scan.sweep.csv").read_bytes()).hexdigest()
        assert digest_a == digest_b

    def test_sweep_requires_section(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, TWO_LEVEL_BASE)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path)]) == 1
        assert "sweep" in capsys.readouterr().err


class TestCompareCommand:
    def test_compare_outputs(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            """
scenario = two_level
protocol = siquad, pi
omega_m_hz = 150e3
delta_m_hz = 10e6
T_siquad_s = 1.9433333333333333e-05
T_flat_pi_s = 3.3333333333333333e-06
steps = 3000
compare_points = 5
""",
            "cmp.cfg",
        )
        code = main(["compare", "--config", cfg_path, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "dominance" in out
        worst = (tmp_path / "cmp.compare_worst.csv").read_text().splitlines()
        assert worst[0] == "axis,protocol,T_s,on_axis_fidelity,on_axis_error,worst_error"
        assert len(worst) == 5  # header + 2 protocols x 2 axes
        dom = (tmp_path / "cmp.compare_dominance.csv").read_text().splitlines()
        assert dom[0] == "axis,protocol_a,protocol_b,fraction_a_le_b,dominates"
        assert len(dom) == 5

    def test_rows_follow_protocol_key_order(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            """
scenario = two_level
protocol = pi, siquad
omega_m_hz = 150e3
delta_m_hz = 10e6
T_siquad_s = 1.9433333333333333e-05
T_flat_pi_s = 3.3333333333333333e-06
steps = 1000
compare_points = 3
""",
            "order.cfg",
        )
        assert main(["compare", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        worst = (tmp_path / "order.compare_worst.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in worst] == ["flat_pi", "siquad"] * 2
        dom = (tmp_path / "order.compare_dominance.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1:3] for row in dom][:2] == [
            ["flat_pi", "siquad"],
            ["siquad", "flat_pi"],
        ]

    def test_additive_amplitude_window_perturbs(self, tmp_path, capsys):
        # the default additive window is +-0.2 of the drive amplitude
        cfg_path = write_config(
            tmp_path, TWO_LEVEL_BASE + "amplitude_mode = additive\ncompare_points = 3\n", "add.cfg"
        )
        assert main(["compare", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "add.compare_worst.csv").read_text().splitlines()[1:]
        amplitude = next(r.split(",") for r in rows if r.startswith("amplitude_scale"))
        on_axis_error, worst_error = float(amplitude[4]), float(amplitude[5])
        assert worst_error > 1.2 * on_axis_error

    def test_conflicting_duration_keys_exit_one(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            """
scenario = two_level
protocol = siquad, pi
omega_m_hz = 150e3
delta_m_hz = 10e6
T_s = 1e-5
T_siquad_s = 2e-5
""",
            "bad.cfg",
        )
        assert main(["compare", "--config", cfg_path, "--out", str(tmp_path)]) == 1
        assert "conflicting" in capsys.readouterr().err


def test_config_out_dir_used_when_no_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(
        tmp_path,
        """
scenario = two_level
protocol = pi
omega_m_hz = 150e3
T_s = 3.3333333333333333e-06
steps = 500
out_dir = from_config
""",
    )
    assert main(["simulate", "--config", cfg_path]) == 0
    assert (tmp_path / "from_config" / "run.metrics.csv").exists()


@pytest.mark.parametrize("preset", preset_names())
def test_preset_resolution_through_cli(tmp_path, capsys, preset):
    # preset names resolve without a file on disk; every preset names two or
    # three protocols for sweep and compare, so simulate must refuse cleanly
    code = main(["simulate", "--config", preset, "--out", str(tmp_path)])
    assert code == 1
    assert "exactly one protocol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, old, new, key",
    [
        ("simulate", "steps = 4000", "steps = 1e400", "steps"),
        ("simulate", "steps = 4000", "steps = nan", "steps"),
        ("simulate", "steps = 4000", "steps = 5", "steps"),
        ("compare", "steps = 4000", "steps = 5", "steps"),
        ("sweep", "steps = 4000", "steps = 5", "steps"),
        ("simulate", "omega_m_hz = 150e3", "omega_m_hz = nan", "omega_m_hz"),
        ("simulate", "omega_m_hz = 150e3", "omega_m_hz = -5", "omega_m_hz"),
        (
            "simulate",
            "scenario = two_level\nprotocol = siquad\nomega_m_hz = 150e3",
            "scenario = three_level\nprotocol = siquad\nomega0_hz = 5e6\ndelta_big_hz = -1e9",
            "delta_big_hz",
        ),
        ("simulate", "T_s = 1.9433333333333333e-05", "T_s = nan", "T_s"),
        ("compare", "steps = 4000", "steps = 4000\ncompare_points = 1", "compare_points"),
        ("compare", "steps = 4000", "steps = 4000\ncompare_amp_lo = 1.3", "compare_amp_lo"),
        ("compare", "steps = 4000", "steps = 4000\ncompare_det_hz = 0", "compare_det_hz"),
        (
            "simulate",
            "scenario = two_level\nprotocol = siquad\nomega_m_hz = 150e3",
            "scenario = three_level\nprotocol = stirap\nomega0_hz = 5e6\ndelta_big_hz = 10e9\nsigma_s = 0",
            "sigma_s",
        ),
        (
            "simulate",
            "scenario = two_level\nprotocol = siquad\nomega_m_hz = 150e3",
            "scenario = three_level\nprotocol = stirap\nomega0_hz = 5e6\ndelta_big_hz = 10e9\ntau_sep_s = 5e-4",
            "tau_sep_s",
        ),
        (
            "sweep",
            "scenario = two_level\nprotocol = siquad\nomega_m_hz = 150e3\ndelta_m_hz = 10e6\n"
            "T_s = 1.9433333333333333e-05\nsteps = 4000\n\n[sweep]\naxis = amplitude_scale\nlo = 0.9",
            "scenario = three_level\nprotocol = stirap\nomega0_hz = 5e6\ndelta_big_hz = 10e9\n"
            "tau_sep_s = 5e-4\nsteps = 4000\n\n[sweep]\naxis = duration\nlo = 1e-4",
            "tau_sep_s",
        ),
        ("simulate", "delta_m_hz = 10e6", "delta_m_hz = 0", "delta_m_hz"),
        ("sweep", "delta_m_hz = 10e6", "delta_m_hz = -1e6", "delta_m_hz"),
        ("compare", "delta_m_hz = 10e6", "delta_m_hz = 0", "delta_m_hz"),
        ("sweep", "axis = amplitude_scale\nlo = 0.9", "axis = duration\nlo = -1e-5", "lo"),
    ],
)
def test_invalid_value_is_config_error(tmp_path, capsys, command, old, new, key):
    text = TWO_LEVEL_BASE + "\n[sweep]\naxis = amplitude_scale\nlo = 0.9\nhi = 1.1\npoints = 3\n"
    assert old in text
    cfg_path = write_config(tmp_path, text.replace(old, new))
    assert main([command, "--config", cfg_path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err


@pytest.mark.parametrize("raw", ["abc", "-3", "0"])
def test_bad_worker_count_is_config_error(tmp_path, capsys, monkeypatch, raw):
    monkeypatch.setenv("QUAD_WORKERS", raw)
    cfg_path = write_config(tmp_path, SWEEP_CFG)
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "QUAD_WORKERS" in err


def test_cli_import_loads_no_process_pool():
    # a single-worker run starts no pool, so its start-up should not pay for
    # importing multiprocessing (sweeps imports the pool only to make one)
    src = os.path.dirname(os.path.dirname(quadsim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, quadsim.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["simulate", "sweep", "compare"])
def test_out_naming_a_file_is_config_error_before_any_run(tmp_path, capsys, monkeypatch, command):
    # the output directory is made before any evolve, so an --out that names
    # a file costs no run: a config error, exit 1, no traceback, and the
    # file untouched; the same command with a directory runs
    monkeypatch.delenv("QUAD_WORKERS", raising=False)
    runs = []
    evolve = quadsim.sweeps.evolve

    def counted(req):
        runs.append(req)
        return evolve(req)

    monkeypatch.setattr(quadsim.sweeps, "evolve", counted)
    text = TWO_LEVEL_BASE + "\n[sweep]\naxis = amplitude_scale\nlo = 0.9\nhi = 1.1\npoints = 3\n"
    cfg_path = write_config(tmp_path, text)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    assert main([command, "--config", cfg_path, "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--out" in err and "Traceback" not in err
    assert runs == [] and taken.read_text() == "keep"
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "fresh")]) == 0
    assert runs
