"""Smoke test of the benchmark harness at a reduced episode length.

    python3 bench/smoke.py            # or: python3 -m pytest bench/smoke.py

Runs every workload untraced and traced with short episodes, and checks
that each run reports every metric BENCHMARK.json names, with its unit
(all but anomaly_auc on the attack-free workload), and that no step failed
(failed_step_frac = 0).  It also checks that the per-layer counts quoted
as exact repeat between two traced runs of one seed, and that the harness
refuses to run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("deepedge_syn", "autodrl_mixed", "deepedge_dense")
ATTACK_FREE = ("deepedge_dense",)
ATTACK_ONLY_METRICS = ("anomaly_auc",)
EPISODE_LEN = 120


def run(workload, trace, seed=0, cwd=ROOT, script=BENCH / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--episode-len", str(EPISODE_LEN)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0, "failed_step_frac is not 0"
    reported = result["metrics"]
    assert set(reported) == {m["name"] for m in declared}
    for m in declared:
        assert reported[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(reported[m["name"]]["value"], (int, float)), m["name"]


def test_every_metric_reported_without_failures():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for workload in WORKLOADS:
        declared = [m for m in spec["end_to_end"] if workload not in ATTACK_FREE
                    or m["name"] not in ATTACK_ONLY_METRICS]
        check_metrics(result_of(run(workload, trace=0)), declared)
        check_metrics(result_of(run(workload, trace=1)), spec["per_layer"])


def test_traced_counts_repeat_exactly():
    sys.path.insert(0, str(BENCH))
    from spans import EXACT_COUNTS

    first, second = (result_of(run("autodrl_mixed", trace=1, seed=5))["metrics"]
                     for _ in range(2))
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_to_run_without_the_program():
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("deepedge_syn", trace=0, cwd=tmp,
                   script=Path(tmp) / BENCH.name / "run.py")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    for test in (test_every_metric_reported_without_failures,
                 test_traced_counts_repeat_exactly,
                 test_refuses_to_run_without_the_program):
        test()
        print(f"ok {test.__name__}")
