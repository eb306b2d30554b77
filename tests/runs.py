"""The run table of the tests that train the reference imbalanced preset.

Each (mode, seed) of the preset is trained once per session, through the
program's own train-then-mask-matrix path, and only its small results are
kept: the cache holds no parameters and no dataset. Every caller gets the
same PresetRun, so no test may change it.
"""

import time
from dataclasses import dataclass
from functools import cache

import numpy as np

from freqbal.bench import train_and_eval
from freqbal.config import RunConfig
from freqbal.intervention import TrainConfig, TrainTrace, warmup_iterations
from freqbal.synthdata import generate, imbalanced_specs


@dataclass(frozen=True)
class PresetRun:
    """accs maps each presence mask (a tuple of bools) to its test accuracy;
    seconds is the wall time of the run's generate, train and mask matrix."""

    accs: dict
    trace: TrainTrace
    warmup: int
    seconds: float


@cache
def preset_run(mode: str, seed: int) -> PresetRun:
    """Train mode on the imbalanced preset generated from 1000 + seed, with
    training seed `seed`, and evaluate its mask matrix on the test split."""
    start = time.monotonic()
    ds = generate(imbalanced_specs(), seed=1000 + seed)
    cfg = RunConfig(train=TrainConfig(mode=mode, seed=seed))
    _, _, trace, records = train_and_eval(cfg, ds)
    return PresetRun(
        accs={r.mask: r.acc for r in records},
        trace=trace,
        warmup=warmup_iterations(cfg.train, ds.n_train),
        seconds=time.monotonic() - start,
    )


def rank_correlation(x, y) -> float:
    """Spearman's rho of two samples without ties: the Pearson correlation of their ranks."""
    assert len(set(x)) == len(x) and len(set(y)) == len(y), "tied values need average ranks"
    rx, ry = (np.argsort(np.argsort(v)) for v in (x, y))
    return float(np.corrcoef(rx, ry)[0, 1])
