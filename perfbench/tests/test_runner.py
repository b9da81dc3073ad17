"""Reduced-size runs of every workload through the runner and its output checks."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing

RUN = os.path.join(run.ROOT, "perfbench", "run.py")


def bench(*args):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=run.ROOT, capture_output=True,
                          text=True, timeout=170)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc, json.loads(last) if last.startswith("{") else None


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_small_run_passes_its_checks(workload, tmp_path):
    proc, result = bench("--workload", workload, "--scale", "small", "--seconds", "0.5",
                         "--seed", "5", "--reference-dir", str(tmp_path),
                         "--record-reference")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert os.listdir(tmp_path), "no reference was recorded"

    proc, result = bench("--workload", workload, "--scale", "small", "--seconds", "0.5",
                         "--seed", "5", "--reference-dir", str(tmp_path))
    assert result["correct"], proc.stdout


def test_traced_run_reports_every_layer_metric():
    proc, result = bench("--workload", "explain-gb-rf", "--scale", "small", "--trace", "1")
    assert result["correct"] and result["attempted"] == 2, proc.stdout
    assert list(result["metrics"]) == [name for name, _, _ in tracing.PER_LAYER]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["tree.grow_tree.calls"] > 0 and m["explain.tree_shap.row_trees"] == 24 * 27
    assert 0 < m["explain.local_accuracy_max_abs"] <= 1e-6


def test_output_differing_from_the_reference_counts_as_failed(tmp_path):
    ref_dir = tmp_path / "ref"
    ref_dir.mkdir()
    args = ("--workload", "reference-1195", "--scale", "small", "--seconds", "0.1")
    bench(*args, "--reference-dir", str(ref_dir), "--record-reference")
    (path,) = ref_dir.iterdir()
    ref = json.loads(path.read_text())
    ref["metrics"]["gradient_boosting"]["test"]["auc"] += 1e-12
    path.write_text(json.dumps(ref))
    proc, result = bench(*args, "--reference-dir", str(ref_dir))
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert "differs from the reference" in proc.stdout


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "reference-1195",
                           "--seed", "1", "--seconds", "10", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
