"""Metrics, mask matrices, sweeps, and the study harness behind the CLI.

Every run directory receives deterministic CSV output (full-precision
repr floats, no timestamps), so identical configs reproduce byte-identical
files. Sweep cells record their config hash and are skipped when already
complete, which makes every sweep resumable.
"""

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import tensorio
from .config import RunConfig, config_hash, dump_config, replace_train
from .errors import ConfigError
from .intervention import TrainConfig, train
from .preference import METRIC_KINDS
from .seeds import stream_seed
from .spectral import fft_filter
from .synthdata import SynthDataset, generate, load_dataset
from .tinynet import evaluate

MATRIX_COLUMNS = ["mask", "acc", "pcr", "mode", "seed", "config"]
AVERAGE_LABEL = "average"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_scores_csv(path, trace) -> None:
    """Long-format preference export: one row per (iteration, modality)."""
    m = trace.n_modalities
    cols = trace.columns(m)
    raw_at = [cols.index(f"frm_raw_m{i}") for i in range(m)]
    smooth_at = [cols.index(f"frm_smooth_m{i}") for i in range(m)]
    rows = []
    for row in trace.rows:
        for i in range(m):
            rows.append([row[0], i, row[raw_at[i]], row[smooth_at[i]]])
    write_csv(path, ["iteration", "modality", "frm_raw", "frm_smooth"], rows)


def pcr(full_metric: float, miss_metric: float) -> float:
    """Performance collapse rate: percent drop relative to the full run."""
    if not full_metric > 0:
        raise ValueError(f"reference metric must be positive, got {full_metric}")
    return 100.0 * (full_metric - miss_metric) / full_metric


@dataclass
class RunRecord:
    """One evaluation row: presence mask, accuracy, collapse rate, provenance."""

    mask: tuple
    acc: float
    pcr: float
    mode: str
    seed: int
    config: str


def mask_order(m: int):
    """All non-empty presence masks: singles first, then pairs, ... then full."""
    from itertools import combinations

    masks = []
    for size in range(1, m + 1):
        for present in combinations(range(m), size):
            masks.append(tuple(i in present for i in range(m)))
    return masks


def mask_label(mask) -> str:
    return "".join("1" if present else "0" for present in mask)


def run_matrix(net_cfg, params, inputs, labels, mode: str, seed: int, config: str):
    """Evaluate every non-empty presence mask against the full-mask reference."""
    m = net_cfg.n_modalities
    full_acc = evaluate(net_cfg, params, inputs, labels)
    records = []
    for mask in mask_order(m):
        if all(mask):
            acc, drop = full_acc, None
        else:
            acc = evaluate(net_cfg, params, inputs, labels, mask)
            drop = pcr(full_acc, acc)
        records.append(RunRecord(mask=mask, acc=acc, pcr=drop, mode=mode, seed=seed, config=config))
    return records


def matrix_average(records):
    """Unweighted means over mask rows: acc over all, pcr where defined."""
    accs = [r.acc for r in records]
    pcrs = [r.pcr for r in records if r.pcr is not None]
    return float(np.mean(accs)), (float(np.mean(pcrs)) if pcrs else None)


def write_run_matrix(path, records) -> None:
    avg_acc, avg_pcr = matrix_average(records)
    rows = [[mask_label(r.mask), r.acc, r.pcr, r.mode, r.seed, r.config] for r in records]
    rows.append([AVERAGE_LABEL, avg_acc, avg_pcr, records[0].mode, records[0].seed, records[0].config])
    write_csv(path, MATRIX_COLUMNS, rows)


def get_dataset(cfg: RunConfig) -> SynthDataset:
    """Load the configured dataset directory or generate from the data seed stream."""
    if cfg.data.data_dir:
        ds = load_dataset(cfg.data.data_dir)
        if ds.n_modalities != len(cfg.data.specs):
            raise ConfigError(
                f"dataset at {cfg.data.data_dir} has {ds.n_modalities} modalities, "
                f"config expects {len(cfg.data.specs)}"
            )
        return ds
    return generate(
        cfg.data.specs,
        n_train=cfg.data.n_train,
        n_test=cfg.data.n_test,
        n_classes=cfg.data.n_classes,
        dims=(cfg.data.height, cfg.data.width),
        seed=stream_seed(cfg.seed, "data"),
    )


def train_and_eval(cfg: RunConfig, dataset: SynthDataset = None, on_epoch_end=None):
    """One full cell: train on the config, evaluate the mask matrix on test."""
    if dataset is None:
        dataset = get_dataset(cfg)
    net_cfg, params, trace = train(cfg.train, dataset, on_epoch_end=on_epoch_end)
    test_inputs, test_labels = dataset.test_split()
    records = run_matrix(
        net_cfg, params, test_inputs, test_labels,
        mode=cfg.train.mode, seed=cfg.seed, config=config_hash(cfg),
    )
    return net_cfg, params, trace, records


def _cell_done(cell_dir: Path, cfg: RunConfig) -> bool:
    marker = cell_dir / "cell.json"
    if not marker.exists():
        return False
    meta = tensorio.read_manifest(marker)
    return meta.get("config") == config_hash(cfg) and meta.get("seed") == cfg.seed


def _run_cell(cell_dir: Path, cfg: RunConfig, dataset=None):
    """Train+eval one sweep cell unless its outputs already match the config."""
    cell_dir = Path(cell_dir)
    if _cell_done(cell_dir, cfg):
        return _read_matrix_summary(cell_dir / "matrix.csv")
    _, _, trace, records = train_and_eval(cfg, dataset)
    cell_dir.mkdir(parents=True, exist_ok=True)
    (cell_dir / "config.txt").write_text(dump_config(cfg))
    trace.write_csv(cell_dir / "trace.csv")
    write_run_matrix(cell_dir / "matrix.csv", records)
    avg_acc, avg_pcr = matrix_average(records)
    tensorio.write_manifest(
        cell_dir / "cell.json",
        {"config": config_hash(cfg), "seed": cfg.seed, "avg_acc": avg_acc, "avg_pcr": avg_pcr},
    )
    return avg_acc, avg_pcr


def _read_matrix_summary(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[-1].split(",")))
    if row["mask"] != AVERAGE_LABEL:
        raise ValueError(f"{path}: last row is not the average row")
    return float(row["acc"]), (float(row["pcr"]) if row["pcr"] else None)


def sweep_window(cfg: RunConfig, q_values, out_dir):
    """One train+eval per frequency block side q (shared seed and data)."""
    out = Path(out_dir)
    rows = []
    for q in q_values:
        allow = cfg.train.spectral.allow_overlap
        if 2 * q > cfg.train.spectral.p and not allow:
            raise ConfigError(
                f"q={q} overlaps the corner blocks for p={cfg.train.spectral.p}; "
                "set allow_overlap to force"
            )
        spectral = replace(cfg.train.spectral, q=q)
        cell_cfg = replace_train(cfg, spectral=spectral)
        avg_acc, avg_pcr = _run_cell(out / f"q{q}", cell_cfg)
        rows.append([q, avg_acc, avg_pcr, cfg.seed, config_hash(cell_cfg)])
    write_csv(out / "summary.csv", ["q", "avg_acc", "avg_pcr", "seed", "config"], rows)
    return rows


def sweep_params(cfg: RunConfig, tuples, out_dir):
    """One train+eval per (alpha, beta, lambda, gamma) scaling-factor tuple."""
    out = Path(out_dir)
    rows = []
    for i, (alpha, beta, lam, gamma) in enumerate(tuples):
        alloc = replace(cfg.train.allocation, alpha=alpha, beta=beta, lam=lam, gamma=gamma)
        cell_cfg = replace_train(cfg, allocation=alloc)
        avg_acc, avg_pcr = _run_cell(out / f"t{i}", cell_cfg)
        rows.append([alpha, beta, lam, gamma, avg_acc, avg_pcr, cfg.seed, config_hash(cell_cfg)])
    write_csv(
        out / "summary.csv",
        ["alpha", "beta", "lambda", "gamma", "avg_acc", "avg_pcr", "seed", "config"],
        rows,
    )
    return rows


def sweep_frm_variants(cfg: RunConfig, out_dir, kinds=METRIC_KINDS):
    """One train+eval per preference-metric kind, shared seed and data."""
    out = Path(out_dir)
    rows = []
    for kind in kinds:
        if kind not in METRIC_KINDS:
            raise ConfigError(f"unknown metric kind {kind!r}; expected one of {METRIC_KINDS}")
        cell_cfg = replace_train(cfg, metric=kind)
        avg_acc, avg_pcr = _run_cell(out / kind, cell_cfg)
        rows.append([kind, avg_acc, avg_pcr, cfg.seed, config_hash(cell_cfg)])
    write_csv(out / "summary.csv", ["metric", "avg_acc", "avg_pcr", "seed", "config"], rows)
    return rows


def filter_dataset(ds: SynthDataset, kind: str, n: int) -> SynthDataset:
    """Apply one FFT filter to every plane of every modality."""
    return replace(ds, images=[fft_filter(stack, kind, n) for stack in ds.images])


def filter_study(cfg: RunConfig, windows, kinds, out_dir):
    """Train on filtered variants of one dataset; emit loss/accuracy curves.

    The base dataset is generated (or loaded) once; each cell filters every
    plane with one (kind, window) pair. The raw dataset is always included
    as the control. curves.csv holds per-epoch mean training loss and test
    accuracy; summary.csv the final values per cell.
    """
    out = Path(out_dir)
    base = get_dataset(cfg)
    variants = [("raw", 0, base)]
    for kind in kinds:
        if kind not in ("low_pass", "high_pass"):
            raise ConfigError(f"unknown filter kind {kind!r}")
        for n in windows:
            variants.append((kind, n, filter_dataset(base, kind, n)))

    curve_rows, summary_rows = [], []
    per_epoch = math.ceil(base.n_train / cfg.train.batch_size)
    for kind, n, ds in variants:
        accs = []

        def on_epoch_end(epoch, net_cfg, params, _accs=accs, _ds=ds):
            test_inputs, test_labels = _ds.test_split()
            _accs.append(evaluate(net_cfg, params, test_inputs, test_labels))

        _, _, trace, _ = train_and_eval(cfg, ds, on_epoch_end=on_epoch_end)
        losses = trace.column("total_loss")
        for epoch in range(cfg.train.epochs):
            epoch_loss = float(losses[epoch * per_epoch : (epoch + 1) * per_epoch].mean())
            curve_rows.append([kind, n, cfg.seed, epoch, epoch_loss, accs[epoch]])
        summary_rows.append([kind, n, cfg.seed, float(losses[-per_epoch:].mean()), accs[-1]])

    write_csv(
        out / "curves.csv",
        ["kind", "window", "seed", "epoch", "train_loss", "eval_acc"],
        curve_rows,
    )
    write_csv(
        out / "summary.csv",
        ["kind", "window", "seed", "final_train_loss", "final_eval_acc"],
        summary_rows,
    )
    return summary_rows
