"""Metrics, mask matrices, sweeps, and the study harness behind the CLI.

Every run directory receives deterministic CSV output (full-precision
repr floats, no timestamps), so identical configs reproduce byte-identical
files; train runs and sweep cells open theirs with run_directory. A cell
whose cell.json marker holds its config hash (and, on a data_dir dataset,
the dataset's digest) is skipped, so sweeps resume. Cells vary only the
training config, so run_sweep checks that a sweep loads one dataset.
"""

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path

import numpy as np

from . import tensorio
from .config import RunConfig, config_hash, dump_config, override
from .errors import ConfigError, NumericError
from .intervention import train
from .preference import METRIC_KINDS
from .seeds import stream_seed
from .spectral import FILTER_KINDS, check_window, fft_filter, high_pass
from .synthdata import SynthDataset, dataset_digest, generate, load_dataset, save_generated
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


def write_trace_csv(path, trace) -> None:
    """The trace's rows under its column layout, one row per iteration."""
    write_csv(path, trace.columns(trace.n_modalities), trace.rows)


@contextmanager
def run_directory(out: Path, cfg: RunConfig, outputs):
    """Make out the run directory of cfg. Remove outputs, whose first is the
    completion file the caller writes last, then trace.csv; write config.txt.
    So a failed run leaves no completion file of an earlier run, and a
    NumericError raised inside writes its partial trace, if any, to trace.csv."""
    out.mkdir(parents=True, exist_ok=True)
    for name in (*outputs, "trace.csv"):
        (out / name).unlink(missing_ok=True)
    (out / "config.txt").write_text(dump_config(cfg))
    try:
        yield
    except NumericError as exc:
        if exc.trace:
            write_trace_csv(out / "trace.csv", exc.trace)
        raise


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
    """One mask of a matrix: presence mask, accuracy and collapse rate.

    The collapse rate is None for the full mask, and for every mask when
    the full mask's accuracy is 0, since it is relative to that accuracy.
    """

    mask: tuple
    acc: float
    pcr: float | None


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


def run_matrix(net_cfg, params, inputs, labels):
    """Evaluate every non-empty presence mask against the full-mask reference.

    One evaluate call covers all masks of mask_order, so each branch's
    test inputs are widened and encoded once. The full mask comes last and
    its accuracy is the PCR reference of the others. The records hold
    only what the evaluation gives; the run's mode, seed and config hash
    are added when write_run_matrix writes them.
    """
    masks = mask_order(net_cfg.n_modalities)
    accs = evaluate(net_cfg, params, inputs, labels, masks)
    full_acc = accs[-1]
    return [
        RunRecord(mask=mask, acc=acc, pcr=pcr(full_acc, acc) if full_acc > 0 and not all(mask) else None)
        for mask, acc in zip(masks, accs)
    ]


def matrix_average(records):
    """Unweighted means over mask rows: acc over all, pcr where defined."""
    accs = [r.acc for r in records]
    pcrs = [r.pcr for r in records if r.pcr is not None]
    return float(np.mean(accs)), (float(np.mean(pcrs)) if pcrs else None)


def write_run_matrix(path, records, cfg: RunConfig) -> None:
    """Write matrix.csv: a row per record, then the row of matrix_average.
    This is the one builder of matrix rows: it stamps each with cfg's mode,
    seed and config hash."""
    entries = [(mask_label(r.mask), r.acc, r.pcr) for r in records]
    entries.append((AVERAGE_LABEL, *matrix_average(records)))
    stamp = (cfg.train.mode, cfg.seed, config_hash(cfg))
    write_csv(path, MATRIX_COLUMNS, [[*entry, *stamp] for entry in entries])


def get_dataset(cfg: RunConfig, split=None) -> SynthDataset:
    """Load the configured dataset directory or generate from the data seed stream.

    A loaded dataset holds only `split` ("train" or "test", see
    load_dataset), or every sample for None. A generated one is always
    generated whole, because the generator draws the whole random stream.
    A loaded dataset whose modality count or plane dims do not fit the
    config is a ConfigError.
    """
    if cfg.data.data_dir:
        ds = load_dataset(cfg.data.data_dir, split)
        if ds.n_modalities != len(cfg.data.specs):
            raise ConfigError(
                f"dataset at {cfg.data.data_dir} has {ds.n_modalities} modalities, "
                f"config expects {len(cfg.data.specs)}"
            )
        require_patch_side(cfg.data.data_dir, ds.dims, cfg.train.spectral.p)
        return ds
    return generate(**_generator_args(cfg))


def require_patch_side(data_dir, dims, p: int) -> None:
    """Raise ConfigError unless patch side p divides the (h, w) planes of the dataset at data_dir."""
    h, w = dims
    if h % p or w % p:
        raise ConfigError(f"dataset at {data_dir} has {h}x{w} planes, not divisible by patch side {p}")


def save_generated_dataset(cfg: RunConfig, out_dir) -> None:
    """Write cfg's generated dataset, ignoring data_dir, to out_dir, never holding it whole."""
    save_generated(out_dir, **_generator_args(cfg))


def _generator_args(cfg: RunConfig) -> dict:
    return dict(
        specs=cfg.data.specs,
        n_train=cfg.data.n_train,
        n_test=cfg.data.n_test,
        n_classes=cfg.data.n_classes,
        dims=(cfg.data.height, cfg.data.width),
        seed=stream_seed(cfg.seed, "data"),
    )


def require_test_split(cfg: RunConfig, dataset: SynthDataset) -> None:
    """Raise ConfigError for a dataset with no test samples, before any training."""
    if dataset.n_test == 0:
        where = f"dataset at {cfg.data.data_dir}" if cfg.data.data_dir else "config"
        raise ConfigError(f"empty evaluation set: {where} has n_test = 0")


def train_and_eval(cfg: RunConfig, dataset: SynthDataset):
    """One full cell: train on the config, evaluate the mask matrix on test."""
    require_test_split(cfg, dataset)
    net_cfg, params, trace = train(cfg.train, dataset)
    test_inputs, test_labels = dataset.test_split()
    records = run_matrix(net_cfg, params, test_inputs, test_labels)
    return net_cfg, params, trace, records


def _run_cell(cell_dir: Path, cfg: RunConfig, dataset, digest):
    """Train+eval one sweep cell unless its marker matches the config and data.

    dataset() is called only if the cell runs. digest is the data_dir
    dataset's digest, or None for generated data, whose marker has no
    "data" entry. Returns (avg_acc, avg_pcr, ran)."""
    marker = cell_dir / "cell.json"
    if marker.exists():
        meta = tensorio.read_manifest(marker)
        if meta.get("config") == config_hash(cfg) and meta.get("data") == digest:
            return meta["avg_acc"], meta["avg_pcr"], False
    data = dataset()
    with run_directory(cell_dir, cfg, ("cell.json", "matrix.csv")):
        _, _, trace, records = train_and_eval(cfg, data)
    write_trace_csv(cell_dir / "trace.csv", trace)
    write_run_matrix(cell_dir / "matrix.csv", records, cfg)
    avg_acc, avg_pcr = matrix_average(records)
    meta = {"config": config_hash(cfg), "seed": cfg.seed, "avg_acc": avg_acc, "avg_pcr": avg_pcr}
    if digest is not None:
        meta["data"] = digest
    tensorio.write_manifest(marker, meta)
    return avg_acc, avg_pcr, True


def run_sweep(cells, key_header, out_dir):
    """Run (directory name, summary keys, RunConfig) cells, then write summary.csv.

    Every config is built, and so validated, and must share the first
    cell's data (and, on generated data, its seed) before the first cell
    runs. An earlier summary.csv is removed once the first cell that runs
    has loaded the dataset and it has passed get_dataset's checks. One
    progress line per cell goes to stderr. Returns the summary rows.
    """
    out = Path(out_dir)
    cells = list(cells)
    for name, _, cfg in cells[1:]:
        first_name, _, first = cells[0]
        if cfg.data != first.data or (not first.data.data_dir and cfg.seed != first.seed):
            raise ConfigError(f"sweep cell {name} uses other data than cell {first_name}")

    @cache
    def dataset():
        ds = get_dataset(cells[0][2])
        (out / "summary.csv").unlink(missing_ok=True)
        return ds
    data_dir = cells[0][2].data.data_dir if cells else None
    digest = dataset_digest(data_dir) if data_dir else None
    rows = []
    for i, (name, keys, cfg) in enumerate(cells, start=1):
        start = time.perf_counter()
        avg_acc, avg_pcr, ran = _run_cell(out / name, cfg, dataset, digest)
        status = f"ran {time.perf_counter() - start:.2f}s" if ran else "cached"
        print(f"sweep [{i}/{len(cells)}] {name} {status}", file=sys.stderr)
        rows.append([*keys, avg_acc, avg_pcr, cfg.seed, config_hash(cfg)])
    write_csv(out / "summary.csv", [*key_header, "avg_acc", "avg_pcr", "seed", "config"], rows)
    return rows


def sweep_window(cfg: RunConfig, q_values, out_dir):
    """One train+eval per frequency block side q (shared seed and data)."""
    cells = ((f"q{q}", [q], override(cfg, {"block": q})) for q in q_values)
    return run_sweep(cells, ["q"], out_dir)


def sweep_params(cfg: RunConfig, tuples, out_dir):
    """One train+eval per (alpha, beta, lambda, gamma) scaling-factor tuple."""
    cells = (
        (f"t{i}", [alpha, beta, lam, gamma],
         override(cfg, {"alpha": alpha, "beta": beta, "lambda": lam, "gamma": gamma}))
        for i, (alpha, beta, lam, gamma) in enumerate(tuples)
    )
    return run_sweep(cells, ["alpha", "beta", "lambda", "gamma"], out_dir)


def sweep_frm_variants(cfg: RunConfig, out_dir, kinds=METRIC_KINDS):
    """One train+eval per preference-metric kind, shared seed and data."""
    cells = ((kind, [kind], override(cfg, {"metric": kind})) for kind in kinds)
    return run_sweep(cells, ["metric"], out_dir)


def filter_dataset(ds: SynthDataset, n: int) -> SynthDataset:
    """The low pass of every plane of every modality, into float32 stacks.

    Each modality's low pass is fft_filter's of its float32 stack: computed
    in float64 a block of planes at a time and rounded once, the rounding
    write_dataset applies. So the filtered dataset holds float32 stacks, as
    generated and loaded ones do, and is never widened whole.
    """
    return replace(ds, images=[fft_filter(stack, n) for stack in ds.images])


def filter_study(cfg: RunConfig, windows, kinds, out_dir):
    """Train on filtered variants of one dataset; emit loss/accuracy curves.

    The base dataset is generated (or loaded) once. The raw dataset is the
    first variant, the control; then each kind at each window, in that
    order. Everything that could fail a variant's build is checked before
    the first variant trains: an unknown kind, a window that does not fit
    the planes, an empty test split. The pixels need no check: generated
    ones are finite and loaded ones were checked as they were read.

    Variants train window by window. A window's low pass is filtered once
    by filter_dataset, into float32 stacks, and trained if asked for; its
    high pass is spectral.high_pass of the base and that low pass, in the
    low pass's own arrays, and then trained. So a run holds the float32
    base plus at most one float32 filtered variant. A variant listed twice
    trains once: training is deterministic, so its rows are those a second
    run would give.

    curves.csv holds per-epoch mean training loss and test accuracy;
    summary.csv the final values per variant; old ones are removed after the checks.
    """
    out = Path(out_dir)
    base = get_dataset(cfg)
    for kind in kinds:
        if kind not in FILTER_KINDS:
            raise ConfigError(f"unknown filter kind {kind!r}")
    if kinds:
        for n in windows:
            check_window(n, *base.dims)
    require_test_split(cfg, base)
    for name in ("curves.csv", "summary.csv"):
        (out / name).unlink(missing_ok=True)

    curves = {("raw", 0): _train_curves(cfg, base)}
    for n in dict.fromkeys(windows) if kinds else ():
        ds = filter_dataset(base, n)
        if "low_pass" in kinds:
            curves["low_pass", n] = _train_curves(cfg, ds)
        if "high_pass" in kinds:
            ds = replace(ds, images=[high_pass(b, l) for b, l in zip(base.images, ds.images)])
            curves["high_pass", n] = _train_curves(cfg, ds)
        del ds  # so the next window's low pass is not built beside this one

    curve_rows, summary_rows = [], []
    for kind, n in [("raw", 0)] + [(kind, n) for kind in kinds for n in windows]:
        losses, accs = curves[kind, n]
        per_epoch = len(losses) // cfg.train.epochs
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


def _train_curves(cfg: RunConfig, ds: SynthDataset):
    """Train on ds; return the per-step total losses and the per-epoch test accuracies.

    Evaluation runs under the step's errstate, so a diverging net is left
    to train's checks, which raise NumericError.
    """
    test_inputs, test_labels = ds.test_split()
    accs = []

    def on_epoch_end(epoch, net_cfg, params):
        with np.errstate(over="ignore", invalid="ignore"):
            [acc] = evaluate(net_cfg, params, test_inputs, test_labels)
        accs.append(acc)

    _, _, trace = train(cfg.train, ds, on_epoch_end=on_epoch_end)
    return trace.column("total_loss"), accs
