"""Spans around calls into freqbal's layers, for the traced benchmark run.

Each public layer function named in LAYERS is wrapped while a traced unit
runs. A call records one span: operation id, span id, parent span id,
name, start, end and an optional work count (planes, bytes). Every span of
one benchmark operation (a CLI command or a probe call) shares the
operation id. Spans stay in memory until the run writes them out.

A function is wrapped by object identity in every loaded freqbal module,
not only where it is defined: `from .tinynet import forward` binds the
same object as intervention.forward, bench.evaluate and others at import
time, so patching tinynet.forward alone would miss those callers.
"""

import csv
import functools
import importlib
import itertools
import pkgutil
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _planes(args, result):
    return len(args[0])


def _bytes_read(args, result):
    return 8 + 4 * result.size


def _bytes_written(args, result):
    return 8 + 4 * np.asarray(args[1]).size


# "<module>.<function>" -> (work counter name, unit, counter) or None.
LAYERS = {
    "spectral.compute_maps_batch": ("planes", "count", _planes),
    "spectral.fft_filter": None,
    "preference.batch_preference": None,
    "allocation.weight": None,
    "tinynet.forward": None,
    "tinynet.backward": None,
    "tinynet.sgd_step": None,
    "tinynet.cross_entropy": None,
    "tinynet.evaluate": None,
    "intervention.train": None,
    "synthdata.generate": None,
    "bench.filter_dataset": None,
    "bench.run_matrix": None,
    "bench.write_csv": None,
    "tensorio.read_raw": ("bytes", "bytes", _bytes_read),
    "tensorio.write_raw": ("bytes", "bytes", _bytes_written),
    "dynamics.jacobi_eigh": None,
    "dynamics.decay_check": None,
    "dynamics.coupling_probe": None,
    "dynamics.suppression_experiment": None,
}

# Root spans (one per operation) are reported together under this name:
# their self time is the part of each operation no traced layer covers.
OPERATION = "op"


class Recorder:
    """In-memory span log: (op, span, parent, name, start, end, work) tuples."""

    def __init__(self, now):
        self._now = now
        self.spans = []
        self._ids = itertools.count()
        self._stack = []
        self._op = 0

    def _open(self):
        span = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span)
        return span, parent, self._now()

    def _close(self, name, opened, work):
        end = self._now()
        span, parent, start = opened
        self._stack.pop()
        self.spans.append((self._op, span, parent, name, start, end, work))

    @contextmanager
    def operation(self, name):
        """Root span of one benchmark operation; yields its operation id."""
        self._op += 1
        opened = self._open()
        try:
            yield self._op
        finally:
            self._close(f"{OPERATION}:{name}", opened, 0)

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self._open()
            work = 0
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    work = counter(args, result)
                return result
            finally:
                self._close(name, opened, work)

        return traced

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["op", "span", "parent", "name", "start", "end", "work"])
            writer.writerows(self.spans)


def _freqbal_modules():
    import freqbal

    for info in pkgutil.iter_modules(freqbal.__path__):
        importlib.import_module(f"freqbal.{info.name}")
    return [m for n, m in list(sys.modules.items()) if n == "freqbal" or n.startswith("freqbal.")]


@contextmanager
def wrapped(recorder):
    """Wrap every LAYERS function while the block runs; yields the missing names.

    A name that no longer exists (after a refactor) is reported as missing
    instead of failing the run. All bindings are restored on exit.
    """
    modules = _freqbal_modules()
    patched, missing = [], []
    for name, counter in LAYERS.items():
        module, attr = name.split(".")
        original = getattr(sys.modules.get(f"freqbal.{module}"), attr, None)
        if not callable(original):
            missing.append(name)
            continue
        traced = recorder.wrap(name, original, counter and counter[2])
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, key, traced)
                patched.append((mod, key, original))
    try:
        yield missing
    finally:
        for mod, key, original in reversed(patched):
            setattr(mod, key, original)


def summarize(spans, factors):
    """Per-layer calls, self seconds and work over the spans of some operations.

    `factors` maps each operation id to its reference seconds per second
    (see clock.py). Self time is a span's duration minus the durations of its
    direct children; calls run on one thread, so children never overlap.
    """
    mine = [s for s in spans if s[0] in factors]
    child_time = defaultdict(float)
    for _, _, parent, _, start, end, _ in mine:
        if parent is not None:
            child_time[parent] += end - start
    totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "work": 0})
    for op, span, parent, name, start, end, work in mine:
        entry = totals[OPERATION if parent is None else name]
        entry["calls"] += 1
        entry["self_s"] += (end - start - child_time[span]) * factors[op]
        entry["work"] += work
    return totals


def layer_metrics(per_unit):
    """Median over traced units of each layer's per-unit figures, as metric values.

    Counts take the lower median, so they stay whole numbers seen in a unit.
    """
    metrics = {}
    for name, counter in LAYERS.items():
        rows = [unit.get(name, {"calls": 0, "self_s": 0.0, "work": 0}) for unit in per_unit]
        metrics[f"{name}.calls"] = (statistics.median_low(r["calls"] for r in rows), "count")
        metrics[f"{name}.self_s"] = (statistics.median(r["self_s"] for r in rows), "s")
        if counter is not None:
            work, unit, _ = counter
            metrics[f"{name}.{work}"] = (statistics.median_low(r["work"] for r in rows), unit)
    own = [unit.get(OPERATION, {"self_s": 0.0}) for unit in per_unit]
    metrics[f"{OPERATION}.self_s"] = (statistics.median(r["self_s"] for r in own), "s")
    return metrics
