"""The four benchmark workloads, each loading a different freqbal layer.

A workload sets itself up once per set-up round (configs, datasets and an
untimed warm-up, all inside a fresh directory), then hands out the
operations of one unit of work. Each unit writes into its own fresh output
directory, so a sweep can never resume from an earlier unit's cells. An
operation is one CLI command or one probe call: `run` is timed, `check`
runs afterwards and returns the problems it found in the outputs.
"""

import csv
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from freqbal import dynamics
from freqbal.cli import DEFAULT_PARAM_TUPLES, main
from freqbal.preference import METRIC_KINDS
from freqbal.seeds import stream_seed
from freqbal.synthdata import generate, imbalanced_specs
from freqbal.tinynet import NetConfig, init_network

# Training work is pinned here rather than taken from program defaults, so
# the amount of work per unit only changes when the benchmark changes.
EPOCHS, BATCH, N_TRAIN, N_TEST = 4, 64, 2000, 500
ITERATIONS = EPOCHS * math.ceil(N_TRAIN / BATCH)
SIZES = f"epochs = {EPOCHS}\nbatch_size = {BATCH}\nn_train = {N_TRAIN}\nn_test = {N_TEST}\n"
MODALITIES = 3
MASKS = 2**MODALITIES - 1


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    items: int = 0  # work items this operation completes, for items_per_s


@dataclass
class CliResult:
    code: int
    stderr: str = field(repr=False)


def cli(*argv) -> CliResult:
    """Run one freqbal command in this process, capturing its console output."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    return CliResult(code, err.getvalue())


def run_or_raise(*argv) -> None:
    """A set-up step: any failure makes the whole benchmark run fail."""
    result = cli(*argv)
    if result.code != 0:
        raise RuntimeError(f"set-up step {argv[0]} exited {result.code}: {result.stderr.strip()}")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def exit_problems(result: CliResult):
    return [] if result.code == 0 else [f"exit code {result.code}: {result.stderr.strip()}"]


def count_problem(rows, expected, what):
    return [] if len(rows) == expected else [f"{what}: {len(rows)} rows, expected {expected}"]


def finite_problems(values, what):
    bad = [v for v in values if not math.isfinite(float(v))]
    return [f"{what}: non-finite values {bad[:3]}"] if bad else []


def accuracy_problems(values, what):
    bad = [v for v in values if not 0.0 <= float(v) <= 1.0]
    return [f"{what}: accuracies outside [0, 1]: {bad[:3]}"] if bad else []


def matrix_problems(path):
    """An eval matrix: 7 masks plus the average row, accuracies within [0, 1]."""
    rows = read_csv(path)
    return count_problem(rows, MASKS + 1, path.name) + accuracy_problems(
        [r["acc"] for r in rows], path.name
    )


class Workload:
    name = ""
    layers = ()  # layers the traced run must see called at least once

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def ops(self, out: Path):
        raise NotImplementedError

    def quality(self, out: Path) -> float:
        raise NotImplementedError


class SweepHybrid(Workload):
    """sweep-params in hybrid mode over the CLI's default tuple grid.

    Each tuple is its own sweep-params command into its own directory, so
    every cell (about a second) is timed and calibrated separately; the
    cells do the same work as one command over the whole grid.
    """

    name = "sweep_hybrid"
    layers = (
        "synthdata.generate", "spectral.compute_maps_batch", "preference.batch_preference",
        "allocation.weight", "tinynet.forward", "tinynet.backward", "tinynet.sgd_step",
        "tinynet.cross_entropy", "tinynet.evaluate", "intervention.train",
        "bench.run_matrix", "bench.write_csv",
    )
    tuples = DEFAULT_PARAM_TUPLES.split(";")

    def setup(self, work):
        self.config = work / "sweep.cfg"
        self.config.write_text(f"seed = {self.seed}\nmode = hybrid\n{SIZES}")
        run_or_raise("sweep-params", "--config", self.config, "--out", work / "warmup", "--tuples", self.tuples[0])

    def ops(self, out):
        def check(result, cell_out):
            problems = exit_problems(result)
            if problems:
                return problems
            summary = read_csv(cell_out / "summary.csv")
            problems += count_problem(summary, 1, "summary.csv")
            problems += accuracy_problems([r["avg_acc"] for r in summary], "summary.csv")
            trace = read_csv(cell_out / "t0" / "trace.csv")
            problems += count_problem(trace, ITERATIONS, "trace.csv")
            losses = [v for r in trace for k, v in r.items() if k == "total_loss" or k.startswith("aux_loss")]
            problems += finite_problems(losses, "trace.csv losses")
            return problems + matrix_problems(cell_out / "t0" / "matrix.csv")

        return [
            Op(f"sweep-params:t{i}",
               lambda cell_out=out / f"t{i}", t=t: cli("sweep-params", "--config", self.config,
                                                       "--out", cell_out, "--tuples", t),
               lambda result, cell_out=out / f"t{i}": check(result, cell_out),
               items=ITERATIONS)
            for i, t in enumerate(self.tuples)
        ]

    def quality(self, out):
        accs = [float(read_csv(out / f"t{i}" / "summary.csv")[0]["avg_acc"]) for i in range(len(self.tuples))]
        return sum(accs) / len(accs)


class FilterStudy(Workload):
    """filter-study at one window on criterion 11's low-band preset, one command per unit."""

    name = "filter_study"
    layers = (
        "spectral.fft_filter", "bench.filter_dataset", "synthdata.generate",
        "spectral.compute_maps_batch", "preference.batch_preference", "tinynet.forward",
        "tinynet.backward", "tinynet.sgd_step", "tinynet.cross_entropy", "tinynet.evaluate",
        "intervention.train", "bench.write_csv",
    )
    variants = 3  # the raw control, low_pass and high_pass at one window
    window = 16
    lowband = "".join(
        f"mod{i}.low_energy = 30\nmod{i}.high_energy = 3\nmod{i}.signal_band = low\nmod{i}.snr = 2.0\n"
        for i in range(MODALITIES)
    )

    def setup(self, work):
        self.config = work / "filter.cfg"
        self.config.write_text(f"seed = {self.seed}\nmode = none\n{SIZES}{self.lowband}")
        warm = work / "warmup.cfg"
        warm.write_text(f"seed = {self.seed}\nmode = none\nepochs = 1\nn_train = 128\nn_test = 32\n{self.lowband}")
        run_or_raise("filter-study", "--config", warm, "--out", work / "warmup", "--windows", self.window)

    def ops(self, out):
        def check(result):
            problems = exit_problems(result)
            if problems:
                return problems
            summary = read_csv(out / "summary.csv")
            problems += count_problem(summary, self.variants, "summary.csv")
            problems += finite_problems([r["final_train_loss"] for r in summary], "summary.csv losses")
            problems += accuracy_problems([r["final_eval_acc"] for r in summary], "summary.csv")
            curves = read_csv(out / "curves.csv")
            problems += count_problem(curves, self.variants * EPOCHS, "curves.csv")
            problems += finite_problems([r["train_loss"] for r in curves], "curves.csv losses")
            problems += accuracy_problems([r["eval_acc"] for r in curves], "curves.csv")
            return problems

        return [Op("filter-study",
                   lambda: cli("filter-study", "--config", self.config, "--out", out, "--windows", self.window),
                   check, items=self.variants * ITERATIONS)]

    def quality(self, out):
        rows = read_csv(out / "summary.csv")
        return sum(float(r["final_eval_acc"]) for r in rows) / len(rows)


class AnalyzeEval(Workload):
    """analyze for every metric kind, then eval of a checkpoint; gen and train are set-up."""

    name = "analyze_eval"
    layers = (
        "tensorio.read_raw", "spectral.compute_maps_batch", "preference.batch_preference",
        "tinynet.forward", "tinynet.evaluate", "bench.run_matrix", "bench.write_csv",
    )
    n_train, n_test = 4000, 1000

    def setup(self, work):
        self.config = work / "run.cfg"
        self.data, self.run = work / "data", work / "run"
        self.config.write_text(
            f"seed = {self.seed}\nmode = hybrid\nepochs = 1\nbatch_size = {BATCH}\n"
            f"n_train = {self.n_train}\nn_test = {self.n_test}\ndata_dir = {self.data}\n"
        )
        run_or_raise("gen", "--config", self.config, "--out", self.data)
        run_or_raise("train", "--config", self.config, "--out", self.run)
        run_or_raise("analyze", "--data", self.data, "--config", self.config, "--out", work / "warmup.csv")
        run_or_raise("eval", "--config", self.config, "--checkpoint", self.run / "checkpoint",
                     "--data", self.data, "--out", work / "warmup")

    def ops(self, out):
        planes = (self.n_train + self.n_test) * MODALITIES
        ops = []
        for kind in METRIC_KINDS:
            path = out / f"scores_{kind}.csv"

            def check(result, path=path, kind=kind):
                problems = exit_problems(result)
                if problems:
                    return problems
                rows = read_csv(path)
                problems += count_problem(rows, MODALITIES, path.name)
                problems += [f"{path.name}: metric {r['metric']!r}" for r in rows if r["metric"] != kind]
                scores = [float(r["score"]) for r in rows]
                problems += finite_problems(scores, path.name)
                problems += [f"{path.name}: negative score {s!r}" for s in scores if s < 0]
                return problems

            ops.append(Op(f"analyze:{kind}",
                          lambda kind=kind, path=path: cli("analyze", "--data", self.data, "--config", self.config,
                                                           "--metric", kind, "--out", path),
                          check, items=planes))

        def check_eval(result):
            return exit_problems(result) or matrix_problems(out / "eval" / "matrix.csv")

        ops.append(Op("eval",
                      lambda: cli("eval", "--config", self.config, "--checkpoint", self.run / "checkpoint",
                                  "--data", self.data, "--out", out / "eval"),
                      check_eval))
        return ops

    def quality(self, out):
        rows = read_csv(out / "eval" / "matrix.csv")
        return float(rows[-1]["acc"])


class Probes(Workload):
    """ntk-check, the coupling probe and criterion 7's suppression experiment."""

    name = "probes"
    layers = (
        "dynamics.jacobi_eigh", "dynamics.decay_check", "dynamics.coupling_probe",
        "dynamics.suppression_experiment", "tinynet.forward", "tinynet.backward",
        "tinynet.sgd_step", "tinynet.cross_entropy", "bench.write_csv",
    )
    ntk_n, ntk_d = 96, 192

    def setup(self, work):
        # Criterion 7 averages the suppression ratio over five seeds; these
        # are the workload seed's five, each with its own dataset.
        self.seeds = [5 * self.seed + i for i in range(5)]
        self.datasets = []  # drops an earlier round's datasets before making new ones
        self.datasets = [generate(imbalanced_specs(), n_train=N_TRAIN, n_test=0, seed=s) for s in self.seeds]
        h, w = self.datasets[0].dims
        self.net = NetConfig(input_dims=(h * w,) * MODALITIES, seed=stream_seed(self.seed, "init"))
        self.params = init_network(self.net)
        images, labels = self.datasets[0].train_split()
        self.batch = [x[:BATCH] for x in images], labels[:BATCH]
        run_or_raise("ntk-check", "--n", 16, "--d", 32, "--seed", self.seed, "--out", work / "warmup.csv")
        dynamics.coupling_probe(self.net, self.params, *self.batch)

    def ops(self, out):
        ntk_csv = out / "ntk.csv"

        def check_ntk(result):
            problems = exit_problems(result)
            if problems:
                return problems
            rows = read_csv(ntk_csv)
            problems += count_problem(rows, self.ntk_n, ntk_csv.name)
            live = [float(r["max_rel_deviation"]) for r in rows if float(r["lambda"]) > 1e-8]
            worst = max(live, default=math.inf)
            if not worst < 1e-6:  # criterion 6's bound
                problems.append(f"ntk-check: max relative deviation {worst!r} >= 1e-6")
            return problems

        def check_coupling(report):
            values = [report.error_norm, report.classifier_grad_norm, report.scaling_max_rel_err,
                      *report.encoder_grad_norms]
            problems = finite_problems(values, "coupling probe")
            if not report.scaling_max_rel_err < 1e-6:
                problems.append(f"coupling probe: scaling error {report.scaling_max_rel_err!r} >= 1e-6")
            return problems

        def check_suppression(results):
            problems = finite_problems([v for r in results for v in r.values()], "suppression experiment")
            problems += [f"prefit loss {r['prefit_loss']!r} >= 0.05" for r in results if not r["prefit_loss"] < 0.05]
            mean = sum(r["ratio"] for r in results) / len(results)
            if not mean <= 0.5:  # criterion 7's bound
                problems.append(f"mean suppression ratio {mean!r} > 0.5")
            return problems

        self.suppression = []

        def suppress():
            self.suppression = [
                dynamics.suppression_experiment(ds, dominant=0, weak=1, eta=0.15, seed=s)
                for ds, s in zip(self.datasets, self.seeds)
            ]
            return self.suppression

        return [
            Op("ntk-check",
               lambda: cli("ntk-check", "--n", self.ntk_n, "--d", self.ntk_d, "--seed", self.seed, "--out", ntk_csv),
               check_ntk, items=1),
            Op("coupling_probe", lambda: dynamics.coupling_probe(self.net, self.params, *self.batch),
               check_coupling, items=1),
            Op("suppression_experiment", suppress, check_suppression, items=1),
        ]

    def quality(self, out):
        return 1.0 - sum(r["ratio"] for r in self.suppression) / len(self.suppression)


WORKLOADS = {w.name: w for w in (SweepHybrid, FilterStudy, AnalyzeEval, Probes)}
