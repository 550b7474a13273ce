import json
import shutil
import subprocess
import sys

import pytest

import run
from conftest import BENCH, ROOT
from satprecode.config import parse_config
from workloads import REFERENCE_SEEDS, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_configs_are_valid_and_seeded(name, tmp_path):
    workload = WORKLOADS[name]
    text = workload.config_text(3)
    assert text == workload.config_text(3)
    assert text == workload.config_text(3 + REFERENCE_SEEDS)
    assert text != workload.config_text(4)
    assert "threads" not in text and "gateway_mode" not in text
    cfg = parse_config(workload.write_config(3, tmp_path / "w.cfg"))
    assert cfg.seed == 3 and cfg.trials == workload.trials


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric_with_its_unit(name, trace):
    proc = _run("--workload", name, "--seed", "5", "--seconds", "0",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m: {"unit": v["unit"]} for m, v in result["metrics"].items()} == {
        m["name"]: {"unit": m["unit"]} for m in expected
    }
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "desk_sweep", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_times_are_scaled_to_the_reference_probe_speed():
    class FakeBench(run.Bench):
        def __init__(self):
            self.workload = WORKLOADS["desk_sweep"]
            self.cells = 10
            self.peaks = [80.0]
            self.setups = [0.5, 0.7, 0.6]
            # This machine runs the probe at half the reference speed.
            slow = 2 * run.REFERENCE_PROBE_S
            self.reps = [
                {"traced": False, "exit": 0, "failed": 0, "wall_s": wall,
                 "cpu_s": 2 * wall, "probe_s": [slow, slow, slow]}
                for wall in (0.3, 0.2, 0.4)
            ]

    bench = FakeBench()
    assert bench.time_scale() == pytest.approx(0.5)
    raw, scaled = run.raw_end_to_end(bench), run.end_to_end(bench)
    assert raw["trials_per_s"] == pytest.approx(WORKLOADS["desk_sweep"].trials / 0.3)
    assert scaled["trials_per_s"] == pytest.approx(2 * raw["trials_per_s"])
    assert scaled["cpu_s_per_trial"] == pytest.approx(raw["cpu_s_per_trial"] / 2)
    assert scaled["setup_s"] == pytest.approx(0.3)
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"] == 80.0
