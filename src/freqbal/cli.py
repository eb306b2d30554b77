"""Command-line interface: analysis, filtering, training, and sweeps.

Exit codes: 0 on success, 2 for configuration errors and unreadable or
malformed input files, 3 for numeric failures (a NaN or inf in an input
file, or a non-finite score or loss; a non-finite loss mid-training
flushes the partial trace before exiting), and 1 for any other error,
reported as one "internal error" line.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bench, tensorio
from .config import config_hash, dump_config, load_config, override
from .dynamics import decay_check
from .errors import ConfigError, NumericError
from .intervention import train as train_loop
from .preference import METRIC_KINDS, sample_preference
from .seeds import stream_rng
from .spectral import SpectralConfig, center_crop, fft_filter
from .synthdata import load_dataset, modality_blocks, save_dataset
from .tinynet import load_checkpoint, save_checkpoint

# A.9-style sensitivity grid (alpha, beta, lambda, gamma); includes the default tuple.
DEFAULT_PARAM_TUPLES = (
    "1.2,1,6,0.7;1.8,1,6,0.7;1.5,1.3,6,0.7;1.5,0.7,6,0.7;1.5,1,6,1.0;"
    "1.5,1,6,0.4;1.5,1,6.3,0.7;1.5,1,5.7,0.7;2.0,1.5,6.5,1.3;1.5,1,6,0.7"
)


def _read_plane(path) -> np.ndarray:
    path = Path(path)
    return tensorio.read_pgm(path) if path.suffix == ".pgm" else tensorio.read_raw(path)


def _write_plane(path, img) -> None:
    path = Path(path)
    if path.suffix == ".pgm":
        tensorio.write_pgm(path, img)
    else:
        tensorio.write_raw(path, img)


def cmd_analyze(args) -> int:
    """Print, and with --out write, the mean score of each plane or modality.

    With --data each modality is scored a block of planes at a time,
    straight from its file, and its score is the mean of the per-sample
    scores of all its blocks. Every score is per plane, so that is bitwise
    the mean over the whole stack, and the dataset is never held whole.
    Every file is checked before the first block is scored, so a malformed
    file exits 2 even when a pixel of an earlier modality is not finite.
    """
    cfg = load_config(args.config) if args.config else None
    spectral = cfg.train.spectral if cfg else SpectralConfig()
    metric = args.metric
    rows = []
    if args.data:
        for path, blocks in modality_blocks(args.data):
            # The score is checked instead of the pixels, which would cost a
            # full pass; numpy's warnings on bad pixels would only repeat it.
            with np.errstate(invalid="ignore", over="ignore"):
                scores = [sample_preference(b, spectral, metric, args.omega_band) for b in blocks]
                score = float(np.concatenate(scores).mean())
            if not np.isfinite(score):
                raise NumericError(
                    f"{path}: non-finite {metric} score; "
                    "the stack holds non-finite or overflowing pixels"
                )
            rows.append([path.stem, metric, score])
    for path in args.images:
        img = _read_plane(path)
        if args.center_crop:
            img = center_crop(img, spectral.p)
        score = float(sample_preference(img, spectral, metric, args.omega_band).mean())
        rows.append([Path(path).name, metric, score])
    if not rows:
        raise ConfigError("analyze needs image paths or --data")
    for name, kind, score in rows:
        print(f"{name}\t{kind}\t{score!r}")
    if args.out:
        bench.write_csv(args.out, ["input", "metric", "score"], rows)
    return 0


def cmd_filter(args) -> int:
    if args.data:
        if not args.out:
            raise ConfigError("dataset filtering needs --out")
        ds = load_dataset(args.data)
        filtered = bench.filter_dataset(ds, args.kind, args.window)
        save_dataset(args.out, filtered)
        print(f"filtered {ds.n_modalities} modalities -> {args.out}")
        return 0
    if not args.input or not args.output:
        raise ConfigError("single-image filtering needs INPUT and OUTPUT paths")
    img = _read_plane(args.input)
    _write_plane(args.output, fft_filter(img, args.kind, args.window))
    print(f"{args.input} -> {args.output} ({args.kind}, n={args.window})")
    return 0


def cmd_gen(args) -> int:
    ds = bench.generate_dataset(load_config(args.config))
    save_dataset(args.out, ds)
    print(f"generated {ds.n_samples} samples x {ds.n_modalities} modalities -> {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = bench.get_dataset(cfg)
    try:
        net_cfg, params, trace = train_loop(cfg.train, dataset)
    except NumericError as exc:
        if exc.trace is not None and len(exc.trace):
            exc.trace.write_csv(out / "trace.csv")
        raise
    trace.write_csv(out / "trace.csv")
    bench.write_scores_csv(out / "scores.csv", trace)
    save_checkpoint(out / "checkpoint", net_cfg, params)
    (out / "config.txt").write_text(dump_config(cfg))
    tensorio.write_manifest(
        out / "run.json",
        {
            "config": config_hash(cfg),
            "mode": cfg.train.mode,
            "seed": cfg.seed,
            "iterations": len(trace),
        },
    )
    print(f"trained {len(trace)} iterations -> {out}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    if args.data:
        cfg = override(cfg, {"data_dir": args.data})
    dataset = bench.get_dataset(cfg)
    if args.mask and args.mask not in map(bench.mask_label, bench.mask_order(dataset.n_modalities)):
        raise ConfigError(
            f"mask {args.mask!r} must be {dataset.n_modalities} characters of 0/1 with at least one 1"
        )
    bench.require_test_split(cfg, dataset)
    if args.checkpoint:
        net_cfg, params = load_checkpoint(args.checkpoint)
    else:
        net_cfg, params, _ = train_loop(cfg.train, dataset)
    test_inputs, test_labels = dataset.test_split()
    records = bench.run_matrix(
        net_cfg, params, test_inputs, test_labels,
        mode=cfg.train.mode, seed=cfg.seed, config=config_hash(cfg),
    )
    if args.mask:
        records = [r for r in records if bench.mask_label(r.mask) == args.mask]
        rows = [[bench.mask_label(r.mask), r.acc, r.pcr, r.mode, r.seed, r.config] for r in records]
        bench.write_csv(Path(args.out) / "matrix.csv", bench.MATRIX_COLUMNS, rows)
    else:
        bench.write_run_matrix(Path(args.out) / "matrix.csv", records)
    for r in records:
        print(f"{bench.mask_label(r.mask)}\tacc={r.acc:.4f}\tpcr={'' if r.pcr is None else round(r.pcr, 4)}")
    return 0


def cmd_sweep_window(args) -> int:
    cfg = load_config(args.config)
    if args.allow_overlap:
        cfg = override(cfg, {"allow_overlap": True})
    q_values = _int_list(args.q)
    bench.sweep_window(cfg, q_values, args.out)
    _print_summary(args.out)
    return 0


def cmd_sweep_params(args) -> int:
    cfg = load_config(args.config)
    tuples = []
    for chunk in args.tuples.split(";"):
        parts = [float(x) for x in chunk.split(",")]
        if len(parts) != 4:
            raise ConfigError(f"expected alpha,beta,lambda,gamma, got {chunk!r}")
        tuples.append(tuple(parts))
    bench.sweep_params(cfg, tuples, args.out)
    _print_summary(args.out)
    return 0


def cmd_sweep_frm(args) -> int:
    cfg = load_config(args.config)
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    bench.sweep_frm_variants(cfg, args.out, kinds)
    _print_summary(args.out)
    return 0


def cmd_filter_study(args) -> int:
    cfg = load_config(args.config)
    windows = _int_list(args.windows)
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    bench.filter_study(cfg, windows, kinds, args.out)
    _print_summary(args.out)
    return 0


def cmd_ntk_check(args) -> int:
    rng = stream_rng(args.seed, "ntk")
    x = rng.normal(size=(args.n, args.d)) / np.sqrt(args.d)
    y = rng.normal(size=args.n)
    report = decay_check(x, y, eta=args.eta, steps=args.steps)
    rows = [
        [i, report.eigenvalues[i], report.factors[i], report.max_rel_deviation[i]]
        for i in range(len(report.eigenvalues))
    ]
    if args.out:
        bench.write_csv(args.out, ["direction", "lambda", "factor", "max_rel_deviation"], rows)
    live = report.eigenvalues > 1e-8
    worst = float(report.max_rel_deviation[live].max())
    print(f"eta={report.eta!r} steps={report.steps}")
    print(f"max relative deviation over {int(live.sum())} live directions: {worst!r}")
    return 0


def _int_list(text: str):
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def _print_summary(out_dir) -> None:
    """Echo the summary.csv just written to out_dir as a tab-separated table."""
    print((Path(out_dir) / "summary.csv").read_text().replace(",", "\t"), end="")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="freqbal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="preference score of images or a dataset")
    p.add_argument("images", nargs="*", help="PGM or raw .f32 planes")
    p.add_argument("--data", help="dataset directory (scores per modality)")
    p.add_argument("--config", help="config file for spectral parameters")
    p.add_argument("--metric", default="frm", choices=METRIC_KINDS)
    p.add_argument("--omega-band", type=float, default=0.9)
    p.add_argument("--center-crop", action="store_true", help="crop to a patch multiple first")
    p.add_argument("--out", help="write scores CSV here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("filter", help="FFT low/high-pass filtering")
    p.add_argument("input", nargs="?", help="input plane (PGM or .f32)")
    p.add_argument("output", nargs="?", help="output plane")
    p.add_argument("--data", help="filter a whole dataset directory instead")
    p.add_argument("--out", help="output dataset directory for --data")
    p.add_argument("--kind", required=True, choices=("low_pass", "high_pass"))
    p.add_argument("--window", type=int, required=True, help="spectral window side n")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train per the config; writes trace + checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="mask matrix of a checkpoint (or train first)")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", help="checkpoint directory from a train run")
    p.add_argument("--data", help="dataset directory override")
    p.add_argument("--mask", help="evaluate one presence mask, e.g. 101")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-window", help="sweep the frequency block side q")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--q", default="1,2,4", help="comma-separated block sides")
    p.add_argument("--allow-overlap", action="store_true",
                   help="permit q > p/2 (overlapping corner blocks)")
    p.set_defaults(func=cmd_sweep_window)

    p = sub.add_parser("sweep-params", help="sweep weight-allocation scaling factors")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tuples", default=DEFAULT_PARAM_TUPLES,
                   help="semicolon-separated alpha,beta,lambda,gamma tuples")
    p.set_defaults(func=cmd_sweep_params)

    p = sub.add_parser("sweep-frm", help="compare preference-metric variants")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kinds", default=",".join(METRIC_KINDS))
    p.set_defaults(func=cmd_sweep_frm)

    p = sub.add_parser("filter-study", help="train on band-filtered dataset variants")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--windows", default="8,16")
    p.add_argument("--kinds", default="low_pass,high_pass")
    p.set_defaults(func=cmd_filter_study)

    p = sub.add_parser("ntk-check", help="verify the eigen-direction decay law")
    p.add_argument("--n", type=int, default=32, help="sample count")
    p.add_argument("--d", type=int, default=64, help="feature dimension")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--eta", type=float, default=None, help="default 0.5/lambda_1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the spectrum report CSV here")
    p.set_defaults(func=cmd_ntk_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A bug, not bad input: one line, never a traceback.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
