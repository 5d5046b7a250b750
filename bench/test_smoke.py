"""Smoke tests of the benchmark: every workload at tiny sizes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, root=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_is_correct_and_attributes_its_time(workload):
    result = _result(_run(workload, 1))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["ops.error_rate"]["value"] == 0.0
    assert metrics["trace.coverage"]["value"] >= 0.9
    assert metrics["infowalk.src_lines"]["value"] > 0


def test_untraced_run_reports_every_end_to_end_metric_and_repeats_its_outputs():
    first, second = _run("buzzer-audit", 0), _run("buzzer-audit", 0)
    result = _result(first)
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0.0

    def digest(proc):
        return [ln for ln in proc.stdout.splitlines() if "pass digest" in ln]

    assert digest(first) and digest(first) == digest(second)


def test_a_checkout_without_the_library_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("buzzer-audit", 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_speed_scale_uses_the_readings_around_an_op():
    speed = hostspeed.HostSpeed()
    speed.ends, speed.block_s = [1.0, 2.0, 3.0], [0.002, 0.004, 0.006]
    assert speed.scale(1.5, 1.9) == pytest.approx(hostspeed.NOMINAL_S / 0.003)
    assert speed.scale(2.1, 2.9) == pytest.approx(hostspeed.NOMINAL_S / 0.005)
    with pytest.raises(ValueError):
        speed.scale(0.5, 0.9)  # no reading before the op
    with pytest.raises(ValueError):
        speed.scale(2.5, 3.5)  # no reading after it
