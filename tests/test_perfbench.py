"""The traced benchmark run as a guard: a refactor that leaves a layer the
workload must call without calls makes the run fail, and so this test."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def traced_run(tmp_path, workload):
    """The metrics of one traced unit of `workload`, checked as correct."""
    # The run writes its work files beside perfbench/, so it runs on a copy.
    for name in ("perfbench", "src"):
        shutil.copytree(
            ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")
        )
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    return result["metrics"]


def test_traced_analyze_eval_run_is_correct(tmp_path):
    metrics = traced_run(tmp_path, "analyze_eval")
    # One encoder pass per mask matrix: a single forward call per unit.
    assert metrics["tinynet.forward.calls"]["value"] == 1
    # Per unit: the labels read by each of the four analyze commands and by
    # eval (5 x 20,008 bytes), eval's three 1,000-row test splits (3 x
    # 4,096,008) and the checkpoint (815,456). The counter measures the
    # rows each call returns, not the bytes it reads: eval still reads and
    # checks the 4,000 training rows of each modality file, then drops them.
    assert metrics["tensorio.read_raw.calls"]["value"] == 28
    assert metrics["tensorio.read_raw.bytes"]["value"] == 13_203_520


def test_traced_filter_study_run_is_correct(tmp_path):
    metrics = traced_run(tmp_path, "filter_study")
    # Three variants of 128 steps each, one weight call per step.
    assert metrics["intervention.train.calls"]["value"] == 3
    assert metrics["allocation.weight.calls"]["value"] == 384


def test_traced_probes_run_is_correct(tmp_path):
    metrics = traced_run(tmp_path, "probes")
    # One ntk-check spectrum and criterion 7's five suppression seeds per unit.
    assert metrics["dynamics.decay_check.calls"]["value"] == 1
    assert metrics["dynamics.suppression_experiment.calls"]["value"] == 5
