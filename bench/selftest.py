"""The benchmark's own tests.

    python3 -m pytest bench/selftest.py

The file name keeps these tests out of the repository's ``test_*.py``
collection, so the package's test run does not start benchmark processes.
Every run here uses the tiny size and a one-second budget.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

FIXED = ("jack-build", "matchings-replay")


def run_bench(root, workload, trace, seed=1):
    """Exit code and parsed last line (None when it is not a result) of one run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def copy_checkout(tmp_path, with_source=True):
    """A checkout holding the benchmark, BENCHMARK.json and, optionally, src/."""
    root = tmp_path / "checkout"
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH, root / "bench", ignore=skip)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    if with_source:
        shutil.copytree(os.path.join(ROOT, "src"), root / "src", ignore=skip)
    return root


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        code, result = run_bench(ROOT, workload, trace)
        assert code == 0
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == declared(kind)
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupted_golden_fails_the_run(tmp_path):
    root = copy_checkout(tmp_path)
    golden = root / "bench" / "golden" / "jack-n-3.json"
    golden.write_bytes(golden.read_bytes().replace(b'"1"', b'"2"', 1))
    code, result = run_bench(root, "jack-build", 0)
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_checkout_without_source_prints_no_result(tmp_path):
    root = copy_checkout(tmp_path, with_source=False)
    code, result = run_bench(root, "jack-build", 0)
    assert code != 0
    assert result is None


@pytest.mark.parametrize("workload", ("matchings-replay", "coeff-routes"))
def test_traced_counts_repeat_and_spans_cover_the_run(workload):
    counts = []
    for _ in range(2):
        code, result = run_bench(ROOT, workload, 1, seed=7)
        assert code == 0
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        counts.append({name: m["value"] for name, m in result["metrics"].items()
                       if m["unit"] == "count"})
        assert metrics["trace.unspanned_s"] < 0.1 * metrics["trace.wall_s"]
    assert counts[0] == counts[1]


def test_seed_changes_the_coeff_routes_draw_only():
    one = workloads.plan("coeff-routes", 1, "full")
    assert one == workloads.plan("coeff-routes", 1, "full")
    assert one != workloads.plan("coeff-routes", 2, "full")
    for workload in FIXED:
        assert workloads.plan(workload, 1, "full") == workloads.plan(workload, 2, "full")


def test_every_partition_is_drawn_whatever_the_seed():
    every = {lam for n in range(1, 7) for lam in workloads._partitions(n)}
    for seed in range(5):
        draw = workloads.plan("coeff-routes", seed, "full")["draw"]
        assert set(draw) == every
        assert len(draw) == 2 * len(every)
