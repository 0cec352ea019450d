"""Fast tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PROBE, SELF_TIME_METRICS, Tracer, layer_metrics  # noqa: E402

SEED = 7


def _bench(*args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "tiny", "--seed", str(SEED),
         "--seconds", "0", *args],
        capture_output=True, text=True, timeout=300, check=False,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_all_workloads(trace):
    rc, result = _bench("--workload", "all", "--trace", trace)
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = run.PER_LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    for name in workloads.BUILDERS:
        for key, unit in units.items():
            assert result["metrics"][f"{name}.{key}"]["unit"] == unit
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        for name in workloads.BUILDERS:
            m = {k.split(".", 1)[1]: v["value"] for k, v in result["metrics"].items()
                 if k.startswith(name + ".")}
            layer_sum = sum(m[k] for k in SELF_TIME_METRICS)
            assert layer_sum == pytest.approx(m["trace.layer_sum_s"])
            assert m["trace.layer_sum_s"] <= m["trace.wall_s"]
            assert m["trace.absent_layers"] == 0
            assert m["propagator.evolve.steps"] > 0


def test_same_seed_same_inputs_and_jitter_stays_small():
    a = workloads.build("lambda_compare", 3)
    assert a == workloads.build("lambda_compare", 3)
    assert a.config_text != workloads.build("lambda_compare", 4).config_text
    t = a.params["durations"]["siquad"]
    assert abs(t / workloads.LAMBDA_T - 1.0) <= workloads.JITTER


def _span(name, start, end, parent, counts=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "counts": counts or {}}


def test_self_time_excludes_children_and_probes():
    trace = {"absent": [], "spans": [
        _span("cli.main", 0.0, 10.0, -1),
        _span("propagator.evolve", 1.0, 9.0, 0, {"steps": 100}),
        _span("propagator.expm_small", 2.0, 6.0, 1, {"matrices": 100}),
        _span(PROBE, 3.0, 4.0, 2),
        _span(PROBE, 9.5, 10.5, 0),  # fired as cli.main closed: only 0.5 s is inside it
    ]}
    m = layer_metrics(trace, scale=2.0)
    assert m["cli.self_s"] == pytest.approx(2.0 * 1.5)
    assert m["propagator.evolve.self_s"] == pytest.approx(2.0 * 4.0)
    assert m["propagator.expm_small.self_s"] == pytest.approx(2.0 * 3.0)
    assert m["trace.layer_sum_s"] == pytest.approx(2.0 * 8.5)
    assert m["propagator.expm_small.ns_per_step"] == pytest.approx(6.0 / 100 * 1e9)
    assert m["propagator.evolve.steps"] == 100 and m["sweeps.evolve_calls"] == 1


def test_tracer_wraps_every_binding_and_reports_absent_names():
    import types

    module = types.ModuleType("quadsim._bench_probe")
    other = types.ModuleType("quadsim._bench_probe_caller")
    module.f = other.f = lambda x: x + 1
    sys.modules[module.__name__], sys.modules[other.__name__] = module, other
    try:
        tracer = Tracer("t")
        tracer.wrap(module, "f", "propagator.evolve")
        tracer.wrap(module, "gone", "propagator.expm_small")
        assert module.f is other.f and other.f(1) == 2
        assert [s[0] for s in tracer.spans] == ["propagator.evolve"]
        assert tracer.absent == ["quadsim._bench_probe.gone"]
    finally:
        del sys.modules[module.__name__], sys.modules[other.__name__]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One tiny call of every workload, outputs left in place."""
    result = {}
    for name in workloads.BUILDERS:
        wl = workloads.build(name, SEED, workloads.TINY)
        runner = run.Runner(wl, SEED, tmp_path_factory.mktemp(name))
        call = runner.call(traced=False)
        assert call.rc == 0 and call.failed == 0, call.problems
        result[name] = (wl, runner.out)
    return result


def _copy(outputs, name, tmp_path) -> tuple:
    """A private copy of one workload's outputs, for a test to tamper with."""
    wl, out = outputs[name]
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return wl, copy


def _edit_csv(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def test_gate_passes_untouched_outputs(outputs):
    for wl, out in outputs.values():
        assert gate.check_outputs(wl, out, 0).failed == 0
        assert gate.oracle_check(wl, out, SEED).problem is None


def test_gate_flags_a_perturbed_final_state(outputs, tmp_path):
    wl, out = _copy(outputs, "lambda_trajectory", tmp_path)
    path = out / f"{wl.name}.trajectory.csv"

    def perturb(lines):
        cols = lines[-1].rstrip("\n").split(",")
        cols[1] = format(float(cols[1]) + 1e-6, ".15e")  # re_1 of the final state
        return lines[:-1] + [",".join(cols) + "\n"]

    _edit_csv(path, perturb)
    assert gate.oracle_check(wl, out, SEED).problem is not None


def test_gate_flags_a_perturbed_fidelity(outputs, tmp_path):
    wl, out = _copy(outputs, "two_level_sweep", tmp_path)
    oracle = gate.oracle_check(wl, out, SEED)
    protocol, value = oracle.point.split(" amplitude_scale=")
    path = out / f"{wl.name}.sweep.csv"

    def perturb(lines):
        edited = []
        for line in lines:
            cols = line.split(",")
            if cols[0] == protocol and cols[3] != "axis_value" and float(cols[3]) == float(value):
                cols[5] = format(float(cols[5]) - 1e-6, ".15e")
            edited.append(",".join(cols))
        return edited

    _edit_csv(path, perturb)
    assert gate.oracle_check(wl, out, SEED).problem is not None


@pytest.mark.parametrize(
    "name,suffix",
    [("two_level_sweep", ".sweep.csv"), ("lambda_compare", ".compare_worst.csv"),
     ("lambda_trajectory", ".trajectory.csv")],
)
def test_gate_flags_a_missing_row(outputs, tmp_path, name, suffix):
    wl, out = _copy(outputs, name, tmp_path)
    _edit_csv(out / f"{wl.name}{suffix}", lambda lines: lines[:2] + lines[3:])
    check = gate.check_outputs(wl, out, 0)
    assert check.failed == 1, check.problems


def test_gate_fails_every_operation_of_a_failed_call(outputs):
    wl, out = outputs["lambda_compare"]
    assert gate.check_outputs(wl, out, 2).failed == wl.ops


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "lambda_compare",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
