"""Benchmark of the freqbal CLI and its dynamics probes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_hybrid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run sets the workload up several times (reporting the median set-up
time), then repeats its unit of work until --seconds have passed and
reports medians over the units. With --trace 0 it prints the end-to-end
metrics; with --trace 1 it alternates untraced and traced units and prints
per-layer metrics from the traced ones. The last line of standard output
is the JSON result; the line before it records the environment.
`--workload all` runs every workload in its own process and prints each
end-to-end metric by name and unit.

The benchmark imports freqbal from src/ of the checkout it sits in and
exits non-zero without a result when that source is absent.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("sweep_hybrid", "filter_study", "analyze_eval", "probes")
SETUP_ROUNDS = 3
BLAS_THREADS = "1"  # one thread: steadier on a shared machine, and never above nproc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "freqbal" / "__init__.py").is_file():
        print(f"error: no freqbal source at {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import freqbal

    if Path(freqbal.__file__).resolve().parent != SRC / "freqbal":
        print(f"error: imported freqbal from {freqbal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        result = run(workload, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        return 1
    env, result = result
    print(json.dumps(env))
    print(json.dumps(result))
    return 0


def run(workload, work: Path, seconds: int, traced: bool):
    # Modules that import numpy load only after main sets the BLAS threads.
    import spans
    from clock import Clock

    clock = Clock()
    setups = []
    for i in range(1 if traced else SETUP_ROUNDS):
        _, _, reference_s = clock.run(lambda: workload.setup(_fresh(work / f"setup{i}")))
        setups.append(reference_s)

    recorder = spans.Recorder(clock.now) if traced else None
    units, missing = measure(workload, work, seconds, clock, recorder)
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    plain = [u for u in units if not u["traced"]]

    if traced:
        traced_units = [u for u in units if u["traced"]]
        per_unit = [spans.summarize(recorder.spans, u["factors"]) for u in traced_units]
        metrics = spans.layer_metrics(per_unit)
        silent = [
            name for name in workload.layers
            if name not in missing and metrics[f"{name}.calls"][0] == 0
        ]
        if silent:
            print(f"error: layers recorded no calls on {workload.name}, so wrapping broke: {silent}",
                  file=sys.stderr)
            return None
        overhead = statistics.median(u["wall_s"] for u in traced_units) - statistics.median(
            u["wall_s"] for u in plain
        )
        metrics["trace.overhead_s"] = (overhead, "s")
        recorder.write_csv(WORK / f"spans-{workload.name}-seed{workload.seed}.csv")
    else:
        qualities = [u["quality"] for u in plain if u["quality"] is not None]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(u["wall_s"] for u in plain), "s"),
            "items_per_s": (statistics.median(u["items_per_s"] for u in plain), "1/s"),
            "quality": (statistics.median(qualities) if qualities else 0.0, "1"),
            "ok_frac": ((attempted - failed) / attempted, "1"),
            "peak_rss_mb": (units[0]["peak_rss_mb"], "MB"),
        }
    env = environment(workload, units, setups, clock, missing)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return env, result


def measure(workload, work: Path, seconds: int, clock, recorder):
    """Repeat the workload's unit until `seconds` pass; alternate traced units when tracing.

    Stops before a unit that would probably end past the deadline, but
    always runs at least one unit of each kind.
    """
    import spans

    units, missing = [], []
    min_units = 1 if recorder is None else 2
    start = time.perf_counter()
    while True:
        traced = recorder is not None and len(units) % 2 == 1
        out = _fresh(work / f"unit{len(units)}")
        if traced:
            with spans.wrapped(recorder) as missing:
                unit = run_unit(workload, out, clock, recorder)
        else:
            unit = run_unit(workload, out, clock, None)
        unit["traced"] = traced
        units.append(unit)
        shutil.rmtree(out, ignore_errors=True)
        elapsed = time.perf_counter() - start
        if len(units) >= min_units and elapsed * (len(units) + 1) / len(units) > seconds:
            return units, missing


def run_unit(workload, out: Path, clock, recorder):
    """One unit of work: each operation timed in reference seconds, then all checked."""
    ops = workload.ops(out)
    results, factors, times = [], {}, []
    for op in ops:
        if recorder is None:
            value, seconds, reference_s = clock.run(lambda: _attempt(op))
        else:
            with recorder.operation(op.name) as op_id:
                value, seconds, reference_s = clock.run(lambda: _attempt(op))
            factors[op_id] = reference_s / seconds
        times.append((seconds, reference_s))
        results.append(value)

    failed = 0
    for op, value in zip(ops, results):
        problems = [f"raised {value!r}"] if isinstance(value, Exception) else _checked(op.check, value)
        if problems:
            failed += 1
            print(f"check failed: {workload.name} {op.name}: {'; '.join(problems)}", file=sys.stderr)
    item_time = sum(t for op, (_, t) in zip(ops, times) if op.items)
    return {
        "factors": factors,
        "raw_wall_s": sum(raw for raw, _ in times),
        "wall_s": sum(t for _, t in times),
        "attempted": len(ops),
        "failed": failed,
        "items_per_s": sum(op.items for op in ops) / item_time if item_time else 0.0,
        "quality": None if failed else workload.quality(out),
        # Later units can raise the peak by allocator fragmentation alone,
        # by different amounts from run to run; so the reported peak is
        # the one reached by the end of the first unit.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _attempt(op):
    """Run one operation; an exception counts as a failed operation, not a crash."""
    try:
        return op.run()
    except Exception as exc:  # noqa: BLE001 - the run must go on and report it
        traceback.print_exc(file=sys.stderr)
        return exc


def _checked(check, value):
    try:
        return check(value)
    except (OSError, KeyError, IndexError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]


def _fresh(path: Path) -> Path:
    path.mkdir(parents=True)
    return path


def environment(workload, units, setups, clock, missing):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy older than 1.26 has no dict mode
        blas = "unknown"
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "setup_s": setups,
        "unit_wall_s": [u["wall_s"] for u in units],
        "unit_raw_wall_s": [u["raw_wall_s"] for u in units],
        "kernel_s": clock.kernel_s,
        "missing_layers": missing,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb belongs to that workload."""
    status = 0
    print("workload\tmetric\tvalue\tunit")
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}\tFAILED (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        for metric, entry in result["metrics"].items():
            print(f"{name}\t{metric}\t{entry['value']!r}\t{entry['unit']}")
        print(f"{name}\tfail_frac\t{result['failed'] / result['attempted']!r}\t1")
    return status


if __name__ == "__main__":
    sys.exit(main())
