"""The traced benchmark run as a guard: a refactor that leaves a layer the
workload must call without calls makes the run fail, and so this test."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_analyze_eval_run_is_correct(tmp_path):
    # The run writes its work files beside perfbench/, so it runs on a copy.
    for name in ("perfbench", "src"):
        shutil.copytree(
            ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")
        )
    argv = ["perfbench/run.py", "--workload", "analyze_eval", "--seed", "0", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    # One encoder pass per mask matrix: a single forward call per unit.
    assert result["metrics"]["tinynet.forward.calls"]["value"] == 1
