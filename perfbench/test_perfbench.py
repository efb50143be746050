"""Self-tests of the benchmark at a tiny run size.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run          # noqa: E402
import speed        # noqa: E402
import workloads    # noqa: E402
import xepecs       # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("fockspace.ops", "model.builds_per_params",
                "amplitudes.dipole_block.calls_per_geometry")


@pytest.fixture(autouse=True)
def few_probes(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    monkeypatch.setattr(run, "IMPORT_PROBES", 1)


def tiny(name: str, seed: int = 1):
    if name == "angle_sweep":
        return workloads.AngleSweep(seed, step_deg=10.0)
    return workloads.make(name, seed, run.WORKDIR, run.SRC)


def measure(name: str, trace: int, seed: int = 1):
    args = run.parse_args(["--workload", name, "--seed", str(seed), "--seconds", "0",
                           "--trace", str(trace)])
    wl = tiny(name, seed)
    try:
        return run.traced_run(wl, args) if trace else run.untraced_run(wl, args, {"setup_s": 0.5, "wall.setup_s": 0.5})
    finally:
        wl.close()


def test_benchmark_names_its_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert BENCH["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_end_to_end_metrics_emitted(name):
    metrics, detail = measure(name, trace=0)
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == expected
    assert all(value > 0 for value, _ in metrics.values())
    assert detail["failed"] == 0
    assert detail["fail_frac"] == (0.0, "ratio")


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_per_layer_metrics_emitted(name):
    metrics, detail = measure(name, trace=1)
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == expected
    assert detail["failed"] == 0
    assert metrics["trace.overhead"][0] > 0


@pytest.mark.parametrize("name", ["angle_sweep", "param_scan"])
def test_wrong_entropy_counts_as_failure(name, monkeypatch):
    original = xepecs.entropy_sweep

    def wrong_sweep(*args, **kwargs):
        curve = original(*args, **kwargs)
        s0 = curve.entropy[0]
        return type(curve)(curve.thetas, (s0 - 1e-6 if s0 > 0.5 else s0 + 1e-6,)
                           + curve.entropy[1:])

    monkeypatch.setattr(xepecs, "entropy_sweep", wrong_sweep)
    _, detail = measure(name, trace=0)
    assert detail["attempted"] >= 1
    assert detail["failed"] == detail["attempted"]
    assert detail["fail_frac"] == (1.0, "ratio")
    assert "entropy.oracle" in detail["failure_names"]


def test_grid_edge_draws_are_counted():
    wl = workloads.ParamScan(seed=1)
    outcomes = [wl.check(wl.inputs(i), wl.run(wl.inputs(i))) for i in (6, 7)]
    assert [o.defects for o in outcomes] == [[], ["eps_on_grid_edge"]]
    assert all(not o.failures for o in outcomes)


def _traced_counts(name: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--seed", "3", "--seconds", "0", "--trace", "1"],
                          capture_output=True, text=True, env=env, timeout=170, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if k in EXACT_COUNTS or k.endswith(".calls") or k == "cli.bytes_written"}


@pytest.mark.parametrize("name", ["param_scan", "cli_runs"])
def test_exact_counts_repeat_across_runs(name):
    first, second = _traced_counts(name, "1"), _traced_counts(name, "2")
    assert set(EXACT_COUNTS) <= set(first)
    assert first == second


def test_exact_counts_repeat_in_process():
    first = measure("angle_sweep", trace=1)[0]
    second = measure("angle_sweep", trace=1)[0]
    assert first["amplitudes.dipole_block.calls_per_geometry"][0] == 2.0
    assert first["model.builds_per_params"][0] == 2.0
    for key in EXACT_COUNTS:
        assert first[key] == second[key]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "param_scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert run.tail_percentile([float(i) for i in range(15)]) == (4.0, 100.0 / 3.0, 10)
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_job_times_are_adjusted_to_the_reference_speed(monkeypatch):
    monkeypatch.setattr(speed, "reference_ms", lambda: 2.0 * speed.NOMINAL_MS)
    metrics, detail = measure("param_scan", trace=0)
    assert metrics["job_ms.p50"][0] == pytest.approx(detail["wall.job_ms.p50"][0] / 2.0)
    assert detail["reference_ms.p50"][0] == 2.0 * speed.NOMINAL_MS


def test_samples_during_a_job_are_left_out_of_its_time(monkeypatch):
    monkeypatch.setattr(speed, "INTERVAL_S", 0.01)
    with speed.SpeedProbe(during_jobs=True) as probe:
        wall, clock = time.perf_counter(), probe.clock()
        while time.perf_counter() - wall < 0.2:
            pass
        wall, clock = time.perf_counter() - wall, probe.clock() - clock
    assert len(probe.samples) >= 5
    assert clock == pytest.approx(wall - probe.paused_s, abs=5e-3)
    assert wall - clock > 0.005
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
