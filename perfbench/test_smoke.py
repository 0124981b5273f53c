"""Smoke test of the benchmark at a tiny size.

Run from the root of a checkout: ``python3 -m pytest perfbench/test_smoke.py``.
It checks that every metric is printed with a unit, that no operation or
check fails, that the traced self times fit in the traced wall time, and
that the benchmark refuses to run without the package's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
TINY = ["--seed", "3", "--seconds", "0.5", "--size", "tiny"]

# The end-to-end metrics of each workload, by the names reports cite.
WORKLOAD_METRICS = {
    "train": ["train_samples_per_s", "train_step_ms_p50", "train_step_ms_p99",
              "train_test_mae", "baseline_train_samples_per_s"],
    "score": ["score_latency_ms_p50", "score_latency_ms_p99",
              "score_requests_per_s", "batch_eval_samples_per_s", "score_mae"],
    "retrieve": ["retrieve_embed_per_s", "retrieve_queries_per_s",
                 "retrieve_top_same_identity_rate"],
}
EVERY_WORKLOAD = ["setup_s", "peak_rss_mb", "error_rate"]


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd, timeout=600,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        kind, _, rest = line.partition(" ")
        if kind == "metric":
            name, value, unit = rest.split(" ")
            printed[name] = (float(value), unit)
    return proc, printed, lines


def test_all_workloads_print_every_metric_with_a_unit():
    proc, printed, lines = run("--workload", "all", "--trace", "0", *TINY)
    assert proc.returncode == 0, proc.stderr
    for workload, names in WORKLOAD_METRICS.items():
        for name in names + EVERY_WORKLOAD:
            value, unit = printed[f"{workload}.{name}"]
            assert unit and unit != "None", name
        assert printed[f"{workload}.error_rate"][0] == 0.0
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("workload", sorted(WORKLOAD_METRICS))
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_holds_the_declared_metrics(workload, trace):
    proc, printed, lines = run("--workload", workload, "--trace", str(trace),
                               *TINY)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert printed["error_rate"][0] == 0.0
    declared = _benchmark()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert 0 < metrics["trace.self_total_ms"] <= metrics["trace.wall_ms"]
        path = os.path.join(ROOT, ".bench_out", f"spans-{workload}-seed3.jsonl")
        with open(path) as fh:
            span = json.loads(fh.readline())
        assert set(span) == {"id", "name", "parent", "start_us", "end_us",
                             "workload"}
        assert span["workload"] == workload


def test_refuses_to_run_without_the_sources():
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "train",
             "--trace", "0", *TINY], cwd=bare, timeout=60,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)
