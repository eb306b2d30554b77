"""Command-line interface: analysis, training, and sweeps.

Exit codes: 0 on success, 2 for configuration errors and unreadable or
malformed input files, 3 for numeric failures (a NaN or inf in an input
file, or a non-finite score or loss), and 1 for any other error, reported
as one "internal error" line. A failed command leaves no completion file
of an earlier run in a directory it has begun to write, and train, eval
and sweep cells flush the partial trace of a non-finite loss before exiting.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bench, tensorio
from .config import config_hash, int_tuple, load_config, override
from .dynamics import decay_check
from .errors import ConfigError, NumericError
from .intervention import TrainConfig, train as train_loop
from .preference import METRIC_KINDS, sample_preference
from .seeds import stream_rng
from .spectral import FILTER_KINDS
from .synthdata import modality_blocks
from .tinynet import load_checkpoint, net_for, save_checkpoint

# A.9-style sensitivity grid (alpha, beta, lambda, gamma); includes the default tuple.
DEFAULT_PARAM_TUPLES = (
    "1.2,1,6,0.7;1.8,1,6,0.7;1.5,1.3,6,0.7;1.5,0.7,6,0.7;1.5,1,6,1.0;"
    "1.5,1,6,0.4;1.5,1,6.3,0.7;1.5,1,5.7,0.7;2.0,1.5,6.5,1.3;1.5,1,6,0.7"
)


def cmd_analyze(args) -> int:
    """Print, and with --out write, the mean score of each modality of --data.

    Each modality is scored a block of planes at a time, straight from its
    file, and its score is the mean of the per-sample scores of all its
    blocks. Every score is per plane, so that is bitwise the mean over the
    whole stack, and the dataset is never held whole. Every file is checked
    before the first block is scored, so a malformed file exits 2 even when
    a pixel of an earlier modality is not finite. The spectral parameters
    and omega_band come from --config, or are the defaults without one.
    """
    train_cfg = load_config(args.config).train if args.config else TrainConfig()
    spectral, omega_band = train_cfg.spectral, train_cfg.omega_band
    metric = args.metric
    rows = []
    for path, blocks in modality_blocks(args.data):
        # The score is checked instead of the pixels, which would cost a full
        # pass. A bad pixel, an overflow and a zero FRM denominator all end
        # here, so numpy's warnings would only repeat it.
        with np.errstate(all="ignore"):
            scores = [sample_preference(b, spectral, metric, omega_band) for b in blocks]
            value = float(np.concatenate(scores).mean())
        if not np.isfinite(value):
            raise NumericError(f"{path}: non-finite {metric} score")
        rows.append([path.stem, metric, value])
    for name, kind, value in rows:
        print(f"{name}\t{kind}\t{value!r}")
    if args.out:
        bench.write_csv(args.out, ["input", "metric", "score"], rows)
    return 0


def cmd_gen(args) -> int:
    cfg = load_config(args.config)
    bench.save_generated_dataset(cfg, args.out)
    n = cfg.data.n_train + cfg.data.n_test
    print(f"generated {n} samples x {len(cfg.data.specs)} modalities -> {args.out}")
    return 0


def cmd_train(args) -> int:
    """Train per the config; write config.txt, trace.csv, scores.csv, the
    checkpoint and, last, run.json to --out, opened by bench.run_directory.

    A dataset directory is loaded with its training split only: training
    never reads the test split, though every value of the files is still
    checked, so a NaN or inf in a test pixel exits 3 all the same.
    """
    cfg = load_config(args.config)
    dataset = bench.get_dataset(cfg, "train")
    out = Path(args.out)
    with bench.run_directory(out, cfg, ("run.json", "checkpoint/checkpoint.json", "scores.csv")):
        net_cfg, params, trace = train_loop(cfg.train, dataset)
    bench.write_trace_csv(out / "trace.csv", trace)
    bench.write_scores_csv(out / "scores.csv", trace)
    save_checkpoint(out / "checkpoint", net_cfg, params)
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
    """Write the mask matrix of --checkpoint on the test split, every mask
    and then their average, to --out/matrix.csv and echo it with tabs.

    With --checkpoint a dataset directory is loaded with its test split
    only, which is all the matrix uses; every value of the files is still
    checked, so a NaN or inf in a training pixel exits 3 all the same.
    Nothing is trained, so --out may be the checkpoint's own train run:
    only an earlier matrix.csv is removed. Without one the whole dataset
    is loaded, trained on and then evaluated, and --out is a run directory
    of its own, opened by bench.run_directory; one holding a train run's
    run.json is refused rather than overwritten. Either way --out is
    touched only once every input is checked.
    """
    cfg = load_config(args.config)
    if args.data:
        cfg = override(cfg, {"data_dir": args.data})
    dataset = bench.get_dataset(cfg, "test" if args.checkpoint else None)
    bench.require_test_split(cfg, dataset)
    out = Path(args.out)
    if args.checkpoint:
        net_cfg, params = load_checkpoint(args.checkpoint)
        _require_fit(args.checkpoint, net_cfg, dataset)
        (out / "matrix.csv").unlink(missing_ok=True)
        records = bench.run_matrix(net_cfg, params, *dataset.test_split())
    else:
        if (out / "run.json").exists():
            raise ConfigError(
                f"--out {out} holds a train run; eval without --checkpoint needs a directory of its own"
            )
        with bench.run_directory(out, cfg, ("matrix.csv",)):
            *_, records = bench.train_and_eval(cfg, dataset)
    bench.write_run_matrix(out / "matrix.csv", records, cfg)
    _print_csv(out / "matrix.csv")
    return 0


def _require_fit(checkpoint, net_cfg, dataset) -> None:
    """Raise ConfigError unless the checkpoint's net takes the dataset's
    modalities and planes and predicts its classes."""
    fit = net_for(dataset, net_cfg.hidden)
    for what, field in (("classes", "n_classes"), ("modalities", "n_modalities"),
                        ("input widths", "input_dims")):
        net_value, data_value = getattr(net_cfg, field), getattr(fit, field)
        if net_value != data_value:
            raise ConfigError(
                f"checkpoint {checkpoint} does not fit the dataset: "
                f"{net_value} {what} in the net, {data_value} in the dataset"
            )


def _grid(option, values):
    """A sweep option's values; one that lists none is a ConfigError."""
    if not values:
        raise ConfigError(f"{option} lists no values to sweep")
    return values


def cmd_sweep_window(args) -> int:
    bench.sweep_window(load_config(args.config), _grid("--q", int_tuple(args.q)), args.out)
    _print_csv(Path(args.out) / "summary.csv")
    return 0


def cmd_sweep_params(args) -> int:
    cfg = load_config(args.config)
    tuples = []
    for chunk in _grid("--tuples", args.tuples.strip()).split(";"):
        try:
            alpha, beta, lam, gamma = map(float, chunk.split(","))
        except ValueError:
            raise ConfigError(f"expected alpha,beta,lambda,gamma, got {chunk!r}") from None
        tuples.append((alpha, beta, lam, gamma))
    bench.sweep_params(cfg, tuples, args.out)
    _print_csv(Path(args.out) / "summary.csv")
    return 0


def cmd_sweep_frm(args) -> int:
    cfg = load_config(args.config)
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    bench.sweep_frm_variants(cfg, args.out, _grid("--kinds", kinds))
    _print_csv(Path(args.out) / "summary.csv")
    return 0


def cmd_filter_study(args) -> int:
    cfg = load_config(args.config)
    windows = _grid("--windows", int_tuple(args.windows))
    kinds = _grid("--kinds", [k.strip() for k in args.kinds.split(",") if k.strip()])
    bench.filter_study(cfg, windows, kinds, args.out)
    _print_csv(Path(args.out) / "summary.csv")
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


def _print_csv(path) -> None:
    """Echo the CSV file just written to path as a tab-separated table."""
    print(Path(path).read_text().replace(",", "\t"), end="")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="freqbal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="preference score of each modality of a dataset")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--config", help="config file for spectral parameters and omega_band")
    p.add_argument("--metric", default="frm", choices=METRIC_KINDS)
    p.add_argument("--out", help="write scores CSV here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gen", help="generate a synthetic dataset, written a block of planes at a time")
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
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-window", help="sweep the frequency block side q")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--q", default="1,2,4", help="comma-separated block sides")
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
    p.add_argument("--kinds", default=",".join(FILTER_KINDS))
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
