"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line with the measured values
(visible with `pytest -s`); stated runtime budgets are asserted alongside
the numeric tolerances. The directional experiments run on the reference
imbalanced preset with five seeds and compare 5-seed means.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from runs import preset_run, rank_correlation

from freqbal.allocation import AllocationParams, weight
from freqbal.bench import filter_study, pcr
from freqbal.config import RunConfig
from freqbal.dynamics import decay_check, suppression_experiment
from freqbal.preference import sample_preference, score_bands
from freqbal.spectral import SpectralConfig, band_projections
from freqbal.synthdata import ModalitySpec, generate, imbalanced_specs, lowband_specs
from freqbal.tinynet import NetConfig, backward, init_network

SEEDS = (0, 1, 2, 3, 4)


def report(number, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({name}): {detail}")


# ---------------------------------------------------------------- helpers

def unimodal(accs, i):
    return accs[tuple(j == i for j in range(3))]


# ---------------------------------------------------------------- criteria

def test_criterion_1_transform_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    patches = rng.random((1000, 8, 8))
    b, _ = band_projections(8, 8, 8)
    coeffs = b @ patches @ b.T
    roundtrip = np.abs(b.T @ coeffs @ b - patches).max()
    parseval = np.abs(
        (coeffs**2).sum(axis=(1, 2)) - (patches**2).sum(axis=(1, 2))
    ).max()

    worst_naive = 0.0
    for x in patches[:50]:
        naive = np.zeros((8, 8))
        for u in range(8):
            for v in range(8):
                cu = math.sqrt(1 / 8) if u == 0 else math.sqrt(2 / 8)
                cv = math.sqrt(1 / 8) if v == 0 else math.sqrt(2 / 8)
                acc = 0.0
                for m in range(8):
                    for n in range(8):
                        acc += (
                            x[m, n]
                            * math.cos((2 * m + 1) * u * math.pi / 16)
                            * math.cos((2 * n + 1) * v * math.pi / 16)
                        )
                naive[u, v] = cu * cv * acc
        worst_naive = max(worst_naive, float(np.abs(b @ x @ b.T - naive).max()))
    elapsed = time.monotonic() - start

    ok = roundtrip < 1e-9 and parseval < 1e-9 and worst_naive < 1e-9 and elapsed < 5
    report(
        1, "transform exactness", ok,
        f"roundtrip={roundtrip:.2e} parseval={parseval:.2e} "
        f"naive={worst_naive:.2e} elapsed={elapsed:.1f}s",
    )
    assert roundtrip < 1e-9
    assert parseval < 1e-9
    assert worst_naive < 1e-9
    assert elapsed < 5


def test_criterion_2_preference_literal_formulas():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(500):
        h, w = rng.integers(2, 6, size=2)
        low = rng.normal(size=(h, w)) * rng.uniform(0.1, 10)
        high = rng.normal(size=(h, w)) * rng.uniform(0.1, 10)

        lit_frm = sum(
            abs(low[a, b] / (high[h - 1 - a, w - 1 - b] + 1e-8))
            for a in range(h)
            for b in range(w)
        )
        lit_low = sum(abs(v) for v in low.ravel())
        lit_high = sum(abs(v) for v in high.ravel())
        pairs = [
            (score_bands(low, high, "frm", 1e-8, 0.9), lit_frm),
            (score_bands(low, high, "mp_low", 1e-8, 0.9), lit_low),
            (score_bands(low, high, "mp_sum", 1e-8, 0.9), lit_low + lit_high),
            (score_bands(low, high, "mp_weighted", 1e-8, 0.9), 0.9 * lit_low + 0.1 * lit_high),
        ]
        for got, expected in pairs:
            worst = max(worst, abs(got - expected) / max(abs(expected), 1e-300))
    ok = worst < 1e-12
    report(2, "preference literal formulas", ok, f"max rel err={worst:.2e} over 500 map pairs")
    assert worst < 1e-12


def test_criterion_3_allocation_anchors():
    params = AllocationParams()
    pivot = weight(0.7, params)
    grid = np.linspace(0.0, 2.0, 10_000)
    k = weight(grid, params)
    in_range = bool(np.all(k > 0.5) and np.all(k < 1.5))
    monotone = bool(np.all(np.diff(k) < 0))
    ok = pivot == 1.0 and in_range and monotone
    report(
        3, "allocation anchors", ok,
        f"weight(0.7)={pivot!r} range=({k.min():.6f},{k.max():.6f}) strict_decrease={monotone}",
    )
    assert pivot == 1.0
    assert in_range
    assert monotone


def test_criterion_4_pcr_reproduction():
    cells = [
        (98.12, 80.10, 18.37),
        (98.12, 95.21, 2.97),
        (98.12, 90.94, 7.32),
        (98.12, 96.20, 1.96),
        (98.12, 92.24, 5.99),
        (98.12, 97.79, 0.34),
    ]
    worst = max(abs(pcr(full, miss) - expected) for full, miss, expected in cells)
    ok = worst <= 0.01
    report(4, "collapse-rate reproduction", ok, f"max abs dev={worst:.4f} over {len(cells)} printed cells")
    assert worst <= 0.01


def test_criterion_5_gradient_correctness():
    start = time.monotonic()
    from test_tinynet import finite_difference, max_rel_err, min_abs_preactivation

    rng = np.random.default_rng(2)
    checked, worst = 0, 0.0
    attempts = 0
    while checked < 10 and attempts < 60:
        attempts += 1
        m = int(rng.integers(1, 4))
        cfg = NetConfig(
            input_dims=tuple(int(d) for d in rng.integers(4, 9, size=m)),
            hidden=tuple(int(d) for d in rng.integers(4, 8, size=int(rng.integers(1, 3)))),
            n_classes=int(rng.integers(2, 5)),
            aux_heads=bool(attempts % 2),
            seed=attempts,
        )
        params = init_network(cfg)
        inputs = [rng.normal(size=(5, d)) for d in cfg.input_dims]
        labels = rng.integers(0, cfg.n_classes, size=5)
        if min_abs_preactivation(cfg, params, inputs) < 1e-3:
            continue  # finite differences are invalid within eps of a ReLU kink
        aux_w = list(rng.uniform(0.5, 1.5, size=m)) if cfg.aux_heads else None
        grads, *_ = backward(cfg, params, inputs, labels, aux_weights=aux_w)
        fd = finite_difference(cfg, params, inputs, labels, aux_weights=aux_w)
        worst = max(worst, max_rel_err(grads, fd))
        checked += 1
    elapsed = time.monotonic() - start
    ok = checked >= 10 and worst < 1e-4 and elapsed < 30
    report(
        5, "gradient correctness", ok,
        f"max rel err={worst:.2e} over {checked} architectures, elapsed={elapsed:.1f}s",
    )
    assert checked >= 10
    assert worst < 1e-4
    assert elapsed < 30


def test_criterion_6_eigen_decay_law():
    start = time.monotonic()
    rng = np.random.default_rng(3)
    x = rng.normal(size=(32, 64)) / 8.0
    y = rng.normal(size=32)
    rep = decay_check(x, y, steps=50)
    assert rep.eta == pytest.approx(0.5 / rep.eigenvalues[0], rel=1e-12)
    live = rep.eigenvalues > 1e-8
    worst = float(rep.max_rel_deviation[live].max())
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 5
    report(
        6, "eigen decay law", ok,
        f"max rel dev={worst:.2e} over {int(live.sum())} directions, elapsed={elapsed:.1f}s",
    )
    assert worst < 1e-6
    assert elapsed < 5


def test_criterion_7_gradient_suppression():
    start = time.monotonic()
    ratios = []
    for seed in SEEDS:
        ds = generate(imbalanced_specs(), seed=1000 + seed)
        result = suppression_experiment(ds, dominant=0, weak=1, eta=0.15, seed=seed)
        assert result["prefit_loss"] < 0.05
        ratios.append(result["ratio"])
    mean_ratio = float(np.mean(ratios))
    elapsed = time.monotonic() - start
    ok = mean_ratio <= 0.5 and elapsed < 120
    report(
        7, "dominant-branch suppression", ok,
        f"weak-gradient ratio mean={mean_ratio:.3f} "
        f"(reduction {100 * (1 - mean_ratio):.0f}% >= 50%), elapsed={elapsed:.0f}s",
    )
    assert mean_ratio <= 0.5
    assert elapsed < 120


def test_criterion_8_rebalancing_efficacy():
    runs = {mode: [preset_run(mode, seed) for seed in SEEDS] for mode in ("none", "hybrid")}
    accs = {mode: [run.accs for run in mode_runs] for mode, mode_runs in runs.items()}
    uni_none = np.array([[unimodal(a, i) for i in range(3)] for a in accs["none"]])
    uni_hyb = np.array([[unimodal(a, i) for i in range(3)] for a in accs["hybrid"]])
    weak = int(np.argmin(uni_none.mean(axis=0)))
    margin = (uni_hyb[:, weak].mean() - uni_none[:, weak].mean()) * 100

    avg_none = np.mean([np.mean(list(a.values())) for a in accs["none"]])
    avg_hyb = np.mean([np.mean(list(a.values())) for a in accs["hybrid"]])
    full = (True, True, True)
    full_drop = (
        np.mean([a[full] for a in accs["none"]])
        - np.mean([a[full] for a in accs["hybrid"]])
    ) * 100
    # The runs' own seconds, so the budget does not depend on which test trained them.
    elapsed = sum(run.seconds for mode_runs in runs.values() for run in mode_runs)

    ok = margin >= 5.0 and avg_hyb > avg_none and full_drop < 2.0 and elapsed < 600
    report(
        8, "rebalancing efficacy", ok,
        f"weak=m{weak} margin={margin:+.1f}pp mask-avg {avg_none:.3f}->{avg_hyb:.3f} "
        f"full-acc drop={full_drop:+.2f}pp elapsed={elapsed:.0f}s",
    )
    assert margin >= 5.0
    assert avg_hyb > avg_none
    assert full_drop < 2.0
    assert elapsed < 600


def test_criterion_9_preference_ordering_fidelity():
    rng = np.random.default_rng(4)
    ratios, scores = [], []
    cfg = SpectralConfig()
    for i in range(100):
        low = float(rng.uniform(0.5, 300.0))
        high = float(rng.uniform(0.5, 60.0))
        spec = ModalitySpec(low_energy=low, high_energy=high, signal_band="low", snr=1.0)
        ds = generate((spec,), n_train=8, n_test=0, seed=5000 + i)
        ratios.append(low / high)
        scores.append(sample_preference(ds.images[0], cfg).mean())
    rho = rank_correlation(ratios, scores)
    ok = rho >= 0.9
    report(9, "preference ordering fidelity", ok, f"spearman rho={rho:.4f} over 100 configurations")
    assert rho >= 0.9


def test_criterion_10_aux_loss_stratification():
    fractions = []
    for run in (preset_run("hybrid", seed) for seed in SEEDS):
        aux = [run.trace.column(f"aux_loss_m{i}")[run.warmup:] for i in range(3)]
        fractions.append(float(np.mean((aux[0] >= aux[1]) & (aux[0] >= aux[2]))))
    mean_frac = float(np.mean(fractions))
    ok = mean_frac >= 0.8
    report(
        10, "aux-loss stratification", ok,
        f"highest-preference branch on top for {100 * mean_frac:.0f}% of post-warmup iterations "
        f"(per seed: {[round(f, 2) for f in fractions]})",
    )
    assert mean_frac >= 0.8


def test_criterion_11_band_filter_directionality(tmp_path):
    wins = 0
    losses = []
    base = RunConfig()
    for seed in SEEDS:
        cfg = replace(
            base,
            train=replace(base.train, mode="none", seed=seed),
            data=replace(base.data, specs=lowband_specs()),
        )
        rows = filter_study(cfg, [16], ["low_pass", "high_pass"], tmp_path / f"fs{seed}")
        final = {row[0]: row[3] for row in rows}
        losses.append((final["low_pass"], final["high_pass"]))
        wins += final["low_pass"] < final["high_pass"]
    ok = wins >= 4
    report(
        11, "band-filter directionality", ok,
        f"low-pass beat high-pass on {wins}/5 seeds "
        f"(final losses: {[(round(a, 4), round(b, 4)) for a, b in losses]})",
    )
    assert wins >= 4


def test_criterion_12_byte_determinism(tmp_path):
    from freqbal.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "seed = 3\nmode = hybrid\nepochs = 1\nbatch_size = 32\n"
        "n_train = 64\nn_test = 32\nhidden = 16,8\n"
    )
    mismatches = []
    for cmd, files in [
        (["gen"], ["dataset.json", "mod0.f32", "mod1.f32", "mod2.f32", "labels.f32"]),
        (["train"], ["trace.csv", "scores.csv", "config.txt", "run.json"]),
        (["eval"], ["matrix.csv"]),
        (["ntk-check", "--n", "8", "--d", "12", "--seed", "1"], None),
    ]:
        if cmd[0] == "ntk-check":
            a, b = tmp_path / "ntk_a.csv", tmp_path / "ntk_b.csv"
            assert main(cmd + ["--out", str(a)]) == 0
            assert main(cmd + ["--out", str(b)]) == 0
            if a.read_bytes() != b.read_bytes():
                mismatches.append("ntk-check")
            continue
        a, b = tmp_path / f"{cmd[0]}_a", tmp_path / f"{cmd[0]}_b"
        assert main(cmd + ["--config", str(cfg), "--out", str(a)]) == 0
        assert main(cmd + ["--config", str(cfg), "--out", str(b)]) == 0
        for name in files:
            if (a / name).read_bytes() != (b / name).read_bytes():
                mismatches.append(f"{cmd[0]}/{name}")
    ok = not mismatches
    report(12, "byte determinism", ok, f"mismatches={mismatches or 'none'}")
    assert not mismatches
