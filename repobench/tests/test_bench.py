"""The benchmark's own tests.

Run from the repository root with ``python -m pytest repobench/tests``.
The smoke runs use a two-second window; they check wiring and result
checking, not speed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repobench import run as bench_run
from repobench import workloads
from repobench.metrics import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "repobench" / "run.py"


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_metric_tables():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS
    )
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    } == END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == {name: (unit, better) for name, (unit, better, __) in
          PER_LAYER.items()}


def _run(workload, trace, seconds=2, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_benchmark_metric(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    spec = _benchmark_json()
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in listed}
    record = json.loads(out.stdout.strip().splitlines()[-2])["record"]
    assert record["stray_processes"] == 0
    assert set(record["host"]) >= {
        "cpu_model", "affinity_cpus", "cgroup_cpu_max",
        "parallel_capacity", "python", "numpy", "gcc",
    }


def test_planted_wrong_digest_is_counted_as_failed(monkeypatch):
    class Planted(workloads.WarmJobs):
        def prepare(self):
            super().prepare()
            probe = next(iter(self.references[0]))
            self.references[0][probe]["states_crc32"] = "00000000"

    monkeypatch.setitem(workloads.WORKLOADS, "warm_jobs", Planted)
    try:
        out = bench_run.run_once("warm_jobs", 11, 1.0, False)
    finally:
        from repobench.harness import reap_children

        reap_children()
    result = out["result"]
    # variant 0 is warmed up once per set-up, so it fails at least that
    # often, and every failure is counted, never dropped
    assert result["failed"] >= bench_run.SETUPS
    assert result["correct"] is False
    assert result["attempted"] > result["failed"]
    assert "output differs from the reference" in out["record"]["failures"]


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copytree(ROOT / "repobench", tmp_path / "repobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "repobench/run.py", "--workload", "warm_jobs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
