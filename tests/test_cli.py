import argparse
import threading
from pathlib import Path

import numpy as np
import pytest
from memtrace import traced_peak

from freqbal import bench, cli, synthdata, tensorio
from freqbal.cli import main
from freqbal.config import dump_config, load_config, override
from freqbal.intervention import train as train_loop
from freqbal.preference import METRIC_KINDS, sample_preference
from freqbal.seeds import stream_rng
from freqbal.spectral import SpectralConfig, compute_maps_batch
from freqbal.synthdata import imbalanced_specs, load_dataset, save_generated, write_dataset
from freqbal.tinynet import init_network, load_checkpoint, net_for, save_checkpoint

TINY = "seed = 0\nepochs = 1\nbatch_size = 32\nn_train = 64\nn_test = 32\nhidden = 16,8\n"


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY)
    return str(path)


def read(path):
    return path.read_bytes()


def damage(data, fault):
    """Break the 64 + 32 sample, 32x32 dataset saved in `data` in the named way."""
    if fault in ("manifest_key", "no_samples", "specs_not_list", "no_modalities"):
        meta = tensorio.read_manifest(data / "dataset.json")
        if fault == "manifest_key":
            del meta["height"]
        elif fault == "specs_not_list":
            meta["specs"] = 7
        elif fault == "no_modalities":
            meta["specs"] = []
        else:
            meta["n_train"] = meta["n_test"] = 0
        tensorio.write_manifest(data / "dataset.json", meta)
    elif fault == "header_shape":
        tensorio.write_raw(data / "mod1.f32", tensorio.read_raw(data / "mod1.f32").reshape(192, 512))
    elif fault == "missing_modality":
        (data / "mod2.f32").unlink()
    elif fault == "bad_label":
        labels = tensorio.read_raw(data / "labels.f32")
        labels[0, 50] = 4.0
        tensorio.write_raw(data / "labels.f32", labels)
    else:
        if fault == "truncated_after_nan":
            stack = tensorio.read_raw(data / "mod0.f32")
            stack[3, 7] = np.nan
            tensorio.write_raw(data / "mod0.f32", stack)
        path = data / ("mod1.f32" if fault == "truncated_modality" else "mod2.f32")
        path.write_bytes(path.read_bytes()[:-4])


COMMANDS = ["analyze", "gen", "train", "eval", "sweep-window", "sweep-params", "sweep-frm",
            "filter-study", "ntk-check"]


def test_command_set(tmp_path):
    [subparsers] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == COMMANDS
    for command in COMMANDS:
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0, command
    # Filtered variants are built only inside filter-study: no command
    # writes them to disk, so "filter" is an unknown command that reads and
    # writes nothing.
    removed = "filter"
    data, out = tmp_path / "ds", tmp_path / "out"
    save_generated(data, imbalanced_specs(), n_train=4, n_test=0, dims=(16, 16))
    files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    with pytest.raises(SystemExit) as exc:
        main([removed, "--data", str(data), "--out", str(out), "--kind", "low_pass", "--window", "8"])
    assert exc.value.code == 2
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files
    assert not out.exists()


class TestExitCodes:
    def test_success(self, cfg_file, tmp_path):
        assert main(["gen", "--config", cfg_file, "--out", str(tmp_path / "ds")]) == 0

    def test_unknown_key_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("etaa = 1\n")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--data", "{tmp}/no_dataset"],
            ["eval", "--config", "{cfg}", "--out", "{tmp}/o", "--checkpoint", "{tmp}/no_checkpoint"],
        ],
        ids=["analyze_data", "eval_checkpoint"],
    )
    def test_missing_input_is_clean_error(self, argv, cfg_file, tmp_path, capsys):
        argv = [a.format(tmp=tmp_path, cfg=cfg_file) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_train_with_missing_data_dir_makes_no_out_dir(self, tmp_path, capsys):
        cfg = tmp_path / "no_data.cfg"
        cfg.write_text(TINY + f"data_dir = {tmp_path / 'no_dataset'}\n")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_bad_metric_fails_at_load(self, tmp_path):
        cfg = tmp_path / "bad_metric.cfg"
        cfg.write_text(TINY + "metric = mp_cubed\n")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, mode",
        [("alpha", "nan", "hybrid"), ("alpha", "nan", "none"), ("beta", "inf", "gradient"),
         ("lambda", "inf", "hybrid"), ("omega_band", "1.5", "none"), ("omega_band", "nan", "none"),
         ("omega_band", "-0.1", "none"), ("lambda", "0", "hybrid"), ("omega_bank", "1.5", "none"),
         ("omega_bank", "-0.5", "hybrid")],
    )
    def test_non_finite_or_out_of_range_float_is_config_error(self, key, value, mode, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY + f"mode = {mode}\nmetric = frm\n{key} = {value}\n")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must ") and err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_final_parameters_are_numeric_error(self, tmp_path, capsys):
        # One step: no later step's logits check can catch its update.
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(TINY.replace("batch_size = 32", "batch_size = 64") + "eta = 1e300\n")
        out = tmp_path / "boom"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: non-finite parameter enc0.w0 ")
        assert len((out / "trace.csv").read_text().splitlines()) == 2
        assert not (out / "checkpoint").exists()

    def test_numeric_failure_flushes_trace(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(TINY.replace("epochs = 1", "epochs = 3") + "eta = 1e12\n")
        out = tmp_path / "boom"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err.count("\n") == 1
        assert (out / "trace.csv").exists()

    @pytest.mark.parametrize("eta", ["1e300", "1e12"])
    @pytest.mark.parametrize("mode", ["none", "loss", "gradient", "hybrid"])
    def test_diverging_step_prints_one_line(self, mode, eta, tmp_path, capsys):
        # pytest turns RuntimeWarning into an error, so an overflow warning
        # from the step would end the run as an internal error.
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(TINY.replace("epochs = 1", "epochs = 3") + f"mode = {mode}\neta = {eta}\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "boom")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: non-finite ") and err.count("\n") == 1

    def test_diverging_sweep_cell_flushes_its_partial_trace(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "sf"
        assert main(["sweep-frm", "--config", cfg_file, "--out", str(out), "--kinds", "frm"]) == 0
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(TINY + "eta = 1e200\n")
        capsys.readouterr()
        assert main(["sweep-frm", "--config", str(cfg), "--out", str(out), "--kinds", "frm"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: non-finite ") and err.count("\n") == 1
        cell = out / "frm"
        assert sorted(p.name for p in cell.iterdir()) == ["config.txt", "trace.csv"]
        assert (cell / "config.txt").read_text() == dump_config(load_config(cfg))
        # The header and the one step before the divergence, not the
        # finished run's two steps.
        assert len((cell / "trace.csv").read_text().splitlines()) == 2

    def test_diverging_train_rerun_leaves_no_finished_run(self, cfg_file, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["train", "--config", cfg_file, "--out", str(run)]) == 0
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(TINY + "eta = 1e200\n")
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 3
        assert sorted(p.name for p in run.iterdir()) == ["checkpoint", "config.txt", "trace.csv"]
        assert (run / "config.txt").read_text() == dump_config(load_config(cfg))
        assert len((run / "trace.csv").read_text().splitlines()) == 2
        assert not (run / "checkpoint" / "checkpoint.json").exists()
        capsys.readouterr()
        argv = ["eval", "--config", cfg_file, "--out", str(tmp_path / "ev"), "--checkpoint", str(run / "checkpoint")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, summaries",
        [
            (["sweep-params", "--tuples", "1.5,1,6,0.7;1.2,1,6,0.7"], ["summary.csv"]),
            (["filter-study", "--windows", "16"], ["curves.csv", "summary.csv"]),
            (["eval"], ["matrix.csv"]),
        ],
        ids=["sweep", "filter_study", "eval"],
    )
    def test_diverging_rerun_leaves_no_summary(self, argv, summaries, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--config", cfg_file, "--out", str(out)]) == 0
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(TINY + "eta = 1e200\n")
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 3
        for name in summaries:
            assert not (out / name).exists(), name

    def test_diverging_filter_study_is_numeric_error(self, tmp_path, capsys):
        # One step per epoch: the diverged net is evaluated before the next
        # step's check, and that evaluation must not end the run on numpy's
        # overflow warning, which pytest turns into an error.
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(TINY.replace("batch_size = 32", "batch_size = 64").replace("epochs = 1", "epochs = 2")
                       + "eta = 1e200\n")
        argv = ["filter-study", "--config", str(cfg), "--out", str(tmp_path / "fs"), "--windows", "16"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: non-finite ") and err.count("\n") == 1

    def test_diverging_sweep_cell_prints_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(TINY + "mode = hybrid\neta = 1e300\n")
        argv = ["sweep-params", "--config", str(cfg), "--out", str(tmp_path / "sp"),
                "--tuples", "1.5,1,6,0.7"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: non-finite ") and err.count("\n") == 1

    @pytest.mark.parametrize("alpha, beta", [("0.4", "1.0"), ("-0.5", "-1.0")])
    def test_weights_below_zero_are_config_error(self, alpha, beta, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY + f"mode = gradient\nalpha = {alpha}\nbeta = {beta}\n")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"alpha={float(alpha)}, beta={float(beta)}" in err
        assert not out.exists()

    def test_non_finite_training_pixel_is_numeric_error(self, cfg_file, tmp_path, capsys):
        data, out = tmp_path / "ds", tmp_path / "run"
        main(["gen", "--config", cfg_file, "--out", str(data)])
        # Poison the sample that the shuffle puts first in the second batch;
        # the whole training split is scored before the first step.
        sample = stream_rng(0, "shuffle").permutation(64)[32]
        stack = tensorio.read_raw(data / "mod1.f32")
        stack[sample, 17] = np.inf
        tensorio.write_raw(data / "mod1.f32", stack)
        cfg = tmp_path / "data.cfg"
        cfg.write_text(TINY + f"data_dir = {data}\n")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"numeric failure: {data / 'mod1.f32'}: non-finite value in row {sample}\n"
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize(
        "edit, bad",
        [
            (lambda labels: np.where(np.arange(96) == 40, 7.0, labels), "label 7.0 of sample 40 "),
            (lambda labels: labels[:90], "expected 96 labels, got 90; first bad sample 90"),
            (lambda labels: np.where(np.arange(96) == 13, 1.5, labels), "label 1.5 of sample 13 "),
        ],
        ids=["out_of_range", "truncated", "fractional"],
    )
    def test_bad_labels_fail_at_load(self, edit, bad, cfg_file, tmp_path, capsys):
        data, out = tmp_path / "ds", tmp_path / "run"
        main(["gen", "--config", cfg_file, "--out", str(data)])
        labels = tensorio.read_raw(data / "labels.f32").reshape(-1)
        tensorio.write_raw(data / "labels.f32", edit(labels))
        cfg = tmp_path / "data.cfg"
        cfg.write_text(TINY + f"data_dir = {data}\n")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {data / 'labels.f32'}: ") and err.count("\n") == 1
        assert bad in err
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize(
        "name, at, row",
        [("labels.f32", (0, 40), 0), ("mod0.f32", (64 + 3, 5), 67)],
        ids=["label", "test_pixel"],
    )
    def test_train_on_non_finite_file_value_is_numeric_error(self, name, at, row, cfg_file, tmp_path, capsys):
        # Training never reads the test split, yet the run must not exit 0;
        # a NaN label is a numeric failure, not a bad label.
        data, out = tmp_path / "ds", tmp_path / "run"
        main(["gen", "--config", cfg_file, "--out", str(data)])
        values = tensorio.read_raw(data / name)
        values[at] = np.nan
        tensorio.write_raw(data / name, values)
        cfg = tmp_path / "data.cfg"
        cfg.write_text(TINY + f"data_dir = {data}\n")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"numeric failure: {data / name}: non-finite value in row {row}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_checkpoint_tensor_is_numeric_error(self, value, cfg_file, tmp_path, capsys):
        run, out = tmp_path / "run", tmp_path / "eval"
        main(["train", "--config", cfg_file, "--out", str(run)])
        tensor = run / "checkpoint" / "enc1.w0.f32"
        weights = tensorio.read_raw(tensor)
        weights[9, 2] = value
        tensorio.write_raw(tensor, weights)
        capsys.readouterr()
        argv = ["eval", "--config", cfg_file, "--checkpoint", str(run / "checkpoint"), "--out", str(out)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == f"numeric failure: {tensor}: non-finite value in row 9\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "where, key", [(None, "net"), ("net", "hidden"), ("net", "seed")],
    )
    def test_checkpoint_missing_key_is_config_error(self, where, key, cfg_file, tmp_path, capsys):
        run, out = tmp_path / "run", tmp_path / "eval"
        main(["train", "--config", cfg_file, "--out", str(run)])
        manifest = run / "checkpoint" / "checkpoint.json"
        meta = tensorio.read_manifest(manifest)
        del (meta if where is None else meta[where])[key]
        tensorio.write_manifest(manifest, meta)
        capsys.readouterr()
        argv = ["eval", "--config", cfg_file, "--checkpoint", str(manifest.parent), "--out", str(out)]
        assert main(argv) == 2
        scope = "" if where is None else f" {where}"
        assert capsys.readouterr().err == f"config error: {manifest}{scope}: missing key {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("hidden", "ab", "hidden must be a list of integers, got 'ab'"),
            ("hidden", [16, 8.0], "hidden must be a list of integers, got [16, 8.0]"),
            ("hidden", [], "encoders need at least one layer"),
            ("input_dims", [1024, True, 1024], "input_dims must be a list of integers, got [1024, True, 1024]"),
            ("aux_heads", "no", "aux_heads must be a boolean, got 'no'"),
            ("aux_heads", 0, "aux_heads must be a boolean, got 0"),
            ("n_classes", 4.7, "n_classes must be an integer, got 4.7"),
            ("n_classes", 4.0, "n_classes must be an integer, got 4.0"),
            ("n_classes", True, "n_classes must be an integer, got True"),
            ("seed", "0", "seed must be an integer, got '0'"),
        ],
        ids=["hidden-str", "hidden-float", "hidden-empty", "input_dims-bool", "aux_heads-str",
             "aux_heads-int", "n_classes-float", "n_classes-integral_float", "n_classes-bool", "seed-str"],
    )
    def test_mistyped_checkpoint_net_field_is_config_error(
        self, field, value, message, cfg_file, tmp_path, capsys
    ):
        run, out = tmp_path / "run", tmp_path / "eval"
        main(["train", "--config", cfg_file, "--out", str(run)])
        manifest = run / "checkpoint" / "checkpoint.json"
        meta = tensorio.read_manifest(manifest)
        meta["net"][field] = value
        tensorio.write_manifest(manifest, meta)
        capsys.readouterr()
        argv = ["eval", "--config", cfg_file, "--checkpoint", str(manifest.parent), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {manifest} net: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["shape", "file_shape"])
    def test_checkpoint_tensor_mismatch_is_config_error(self, fault, cfg_file, tmp_path, capsys):
        # The net fixes each tensor's shape; check_raw checks the file against it.
        run, out = tmp_path / "run", tmp_path / "eval"
        main(["train", "--config", cfg_file, "--out", str(run)])
        if fault == "shape":
            tensor = run / "checkpoint" / "enc1.w0.f32"
            tensorio.write_raw(tensor, tensorio.read_raw(tensor).T)
            message = f"{tensor}: holds a 16x1024 matrix, destination is float32 (1024, 16)"
        else:
            tensor = run / "checkpoint" / "clf.b.f32"
            tensorio.write_raw(tensor, np.zeros((2, 2)))
            message = f"{tensor}: holds a 2x2 matrix, destination is float32 (1, 4)"
        capsys.readouterr()
        argv = ["eval", "--config", cfg_file, "--checkpoint", str(run / "checkpoint"), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_missing_checkpoint_tensor_file_is_clean_error(self, cfg_file, tmp_path, capsys):
        run, out = tmp_path / "run", tmp_path / "eval"
        main(["train", "--config", cfg_file, "--out", str(run)])
        tensor = run / "checkpoint" / "clf.b.f32"
        tensor.unlink()
        capsys.readouterr()
        argv = ["eval", "--config", cfg_file, "--checkpoint", str(run / "checkpoint"), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{tensor}'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("classes = 6\n", "4 classes in the net, 6 in the dataset"),
            ("mod0.snr = 1\nmod1.snr = 1\n", "3 modalities in the net, 2 in the dataset"),
            ("height = 16\nwidth = 16\n",
             "(1024, 1024, 1024) input widths in the net, (256, 256, 256) in the dataset"),
        ],
        ids=["classes", "modalities", "plane_size"],
    )
    def test_checkpoint_that_does_not_fit_the_dataset_is_config_error(
        self, extra, message, cfg_file, tmp_path, capsys, monkeypatch
    ):
        run, out = tmp_path / "run", tmp_path / "eval"
        main(["train", "--config", cfg_file, "--out", str(run)])
        other = tmp_path / "other.cfg"
        other.write_text(TINY + extra)
        # Nothing is evaluated: the net is compared with the dataset first.
        monkeypatch.setattr(bench, "run_matrix", None)
        capsys.readouterr()
        checkpoint = str(run / "checkpoint")
        argv = ["eval", "--config", str(other), "--checkpoint", checkpoint, "--out", str(out)]
        assert main(argv) == 2
        expected = f"config error: checkpoint {checkpoint} does not fit the dataset: {message}\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "", "16,0"])
    def test_bad_hidden_fails_at_load(self, value, tmp_path, capsys):
        cfg = tmp_path / "bad_hidden.cfg"
        cfg.write_text(TINY.replace("hidden = 16,8\n", f"hidden = {value}\n"))
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        hidden = tuple(int(x) for x in value.split(",") if x)
        expected = f"config error: hidden must list one or more layer widths >= 1, got {hidden}\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("low_energy", "x"), ("low_energy", True), ("high_energy", None), ("snr", "1.0"),
         ("snr", False), ("signal_band", 1), ("signal_band", None)],
    )
    def test_mistyped_dataset_spec_is_config_error(self, field, value, cfg_file, tmp_path, capsys):
        data, out = tmp_path / "ds", tmp_path / "scores.csv"
        main(["gen", "--config", cfg_file, "--out", str(data)])
        meta = tensorio.read_manifest(data / "dataset.json")
        meta["specs"][1][field] = value
        tensorio.write_manifest(data / "dataset.json", meta)
        capsys.readouterr()
        assert main(["analyze", "--data", str(data), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {data / 'dataset.json'} specs[1]: {field} must be ")
        assert repr(value) in captured.err and captured.out == ""
        assert not out.exists()

    def test_integer_dataset_spec_is_accepted(self, cfg_file, tmp_path):
        data, out = tmp_path / "ds", tmp_path / "scores.csv"
        main(["gen", "--config", cfg_file, "--out", str(data)])
        main(["analyze", "--data", str(data), "--out", str(tmp_path / "expected.csv")])
        meta = tensorio.read_manifest(data / "dataset.json")
        meta["specs"][0].update(low_energy=100, snr=1)
        tensorio.write_manifest(data / "dataset.json", meta)
        spec = load_dataset(data).specs[0]
        assert (spec.low_energy, spec.snr) == (100, 1)
        assert main(["analyze", "--data", str(data), "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "expected.csv").read_bytes()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_spec_is_config_error(self, value, tmp_path, capsys):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(TINY + f"mod0.low_energy = {value}\n")
        out = tmp_path / "ds"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: mod0: low_energy must be finite, got {value}\n"
        assert not out.exists()

    def test_dims_not_divisible_by_generator_patch_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "patch4.cfg"
        cfg.write_text(TINY + "patch = 4\nheight = 12\nwidth = 12\n")
        out = tmp_path / "ds"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: dims (12, 12) not divisible by the generator's patch side 8\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, prior",
        [
            (["train"], ["run.json"]),
            (["eval"], ["matrix.csv"]),
            (["eval", "--checkpoint", "{tmp}/no_checkpoint"], ["matrix.csv"]),
            (["sweep-window", "--q", "2"], ["q2/cell.json", "summary.csv"]),
            (["filter-study", "--windows", "8"], ["curves.csv", "summary.csv"]),
        ],
        ids=["train", "eval", "eval_checkpoint", "sweep-window", "filter-study"],
    )
    def test_data_dir_planes_not_divisible_by_patch_is_config_error(self, argv, prior, tmp_path, capsys):
        data, out = tmp_path / "ds", tmp_path / "out"
        (tmp_path / "gen.cfg").write_text(TINY + "height = 40\nwidth = 40\n")
        main(["gen", "--config", str(tmp_path / "gen.cfg"), "--out", str(data)])
        cfg = tmp_path / "patch16.cfg"
        cfg.write_text(TINY + f"patch = 16\ndata_dir = {data}\n")
        for name in prior:  # an earlier run's files, which must survive
            (out / name).parent.mkdir(parents=True, exist_ok=True)
            (out / name).write_text("{}\n")

        def tree():
            return {p: p.is_file() and p.read_bytes() for p in out.rglob("*")}

        before = tree()
        capsys.readouterr()
        command, *extra = [a.format(tmp=tmp_path) for a in argv]
        assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: dataset at {data} has 40x40 planes, not divisible by patch side 16\n"
        assert tree() == before

    @pytest.mark.parametrize("command", ["gen", "train"])
    @pytest.mark.parametrize("key, value", [("height", 0), ("width", -8)])
    def test_plane_dim_below_one_is_config_error(self, command, key, value, tmp_path, capsys):
        # Both values are divisible by the patch side, so only the dim check can fail.
        cfg = tmp_path / "dims.cfg"
        cfg.write_text(TINY + f"{key} = {value}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {key} is {value}; it must be at least 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("classes", [0, 1, -2])
    def test_fewer_than_two_classes_is_config_error(self, classes, tmp_path, capsys):
        cfg = tmp_path / "classes.cfg"
        cfg.write_text(TINY + f"classes = {classes}\n")
        out = tmp_path / "ds"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: classes must be at least 2, got {classes}\n"
        assert not out.exists()

    def test_non_finite_test_pixel_is_numeric_error(self, cfg_file, tmp_path, capsys):
        # Training never reads the test split; the mask matrix must not score
        # the NaN logits of a corrupt test sample, so the load rejects it.
        data, out = tmp_path / "ds", tmp_path / "eval"
        main(["gen", "--config", cfg_file, "--out", str(data)])
        stack = tensorio.read_raw(data / "mod1.f32")
        stack[64 + 6, 100] = np.inf
        tensorio.write_raw(data / "mod1.f32", stack)
        capsys.readouterr()
        assert main(["eval", "--config", cfg_file, "--data", str(data), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"numeric failure: {data / 'mod1.f32'}: non-finite value in row 70\n"
        assert not (out / "matrix.csv").exists()

    def test_eval_checkpoint_on_non_finite_training_pixel_is_numeric_error(self, cfg_file, tmp_path, capsys):
        # eval --checkpoint holds only the test split, yet the run must not
        # exit 0 on a corrupt training sample, as train must not on a test one.
        data, run, out = tmp_path / "ds", tmp_path / "run", tmp_path / "eval"
        main(["gen", "--config", cfg_file, "--out", str(data)])
        main(["train", "--config", cfg_file, "--out", str(run)])
        stack = tensorio.read_raw(data / "mod2.f32")
        stack[41, 300] = np.nan
        tensorio.write_raw(data / "mod2.f32", stack)
        capsys.readouterr()
        argv = ["eval", "--config", cfg_file, "--checkpoint", str(run / "checkpoint"),
                "--data", str(data), "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == f"numeric failure: {data / 'mod2.f32'}: non-finite value in row 41\n"
        assert not (out / "matrix.csv").exists()

    @pytest.mark.parametrize("command", ["filter-study"])
    def test_non_finite_pixel_in_filtered_data_is_numeric_error(self, command, cfg_file, tmp_path, capsys):
        data, out = tmp_path / "ds", tmp_path / "out"
        main(["gen", "--config", cfg_file, "--out", str(data)])
        stack = tensorio.read_raw(data / "mod2.f32")
        stack[70, 9] = np.nan
        stack[75, 3] = np.inf
        tensorio.write_raw(data / "mod2.f32", stack)
        cfg = tmp_path / "data.cfg"
        cfg.write_text(TINY + f"data_dir = {data}\n")
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(out), "--windows", "4"]) == 3
        assert capsys.readouterr().err == f"numeric failure: {data / 'mod2.f32'}: non-finite value in row 70\n"
        assert not (out / "summary.csv").exists()

    @pytest.mark.parametrize(
        "extra, pixel, code, message",
        [
            (["--kinds", "low_pass,band_pass"], None, 2, "config error: unknown filter kind 'band_pass'\n"),
            (["--windows", "16,33"], None, 2, "config error: window side 33 out of range for 32x32 plane\n"),
            (["--windows", "0"], None, 2, "config error: window side 0 out of range for 32x32 plane\n"),
            (["--windows", "16"], (0, 5), 3, "numeric failure: {data}/mod0.f32: non-finite value in row 5\n"),
            (["--windows", "16"], (2, 90), 3, "numeric failure: {data}/mod2.f32: non-finite value in row 90\n"),
            (["--windows", ""], (1, 80), 2, "config error: --windows lists no values to sweep\n"),
            (["--kinds", ""], (1, 80), 2, "config error: --kinds lists no values to sweep\n"),
        ],
        ids=["kind", "window_too_wide", "window_zero", "train_pixel", "test_pixel", "no_window", "no_kind"],
    )
    def test_filter_study_fails_before_training(
        self, extra, pixel, code, message, cfg_file, tmp_path, monkeypatch, capsys
    ):
        data, out = tmp_path / "ds", tmp_path / "out"
        main(["gen", "--config", cfg_file, "--out", str(data)])
        if pixel is not None:
            modality, sample = pixel
            stack = tensorio.read_raw(data / f"mod{modality}.f32")
            stack[sample, 40] = np.nan
            tensorio.write_raw(data / f"mod{modality}.f32", stack)
        cfg = tmp_path / "data.cfg"
        cfg.write_text(TINY + f"data_dir = {data}\n")
        calls = []
        original = bench.train
        monkeypatch.setattr(bench, "train", lambda *a, **k: calls.append(1) or original(*a, **k))
        capsys.readouterr()
        assert main(["filter-study", "--config", str(cfg), "--out", str(out), *extra]) == code
        assert capsys.readouterr().err == message.format(data=data)
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["filter-study", "--windows", "16"], ["sweep-params", "--tuples", "1.5,1,6,0.7"], ["eval"]],
        ids=["filter-study", "sweep-params", "eval"],
    )
    def test_empty_test_split_fails_before_training(self, argv, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "no_test.cfg"
        cfg.write_text(TINY.replace("n_test = 32", "n_test = 0"))
        calls = []
        for module, name in ((bench, "train"), (cli, "train_loop")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _f=original, **k: calls.append(1) or _f(*a, **k))
        out = tmp_path / "out"
        assert main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]]) == 2
        assert capsys.readouterr().err == "config error: empty evaluation set: config has n_test = 0\n"
        assert calls == []
        assert not (out / "summary.csv").exists() and not (out / "matrix.csv").exists()

    def test_empty_test_split_of_a_data_dir_names_it(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "no_test.cfg"
        cfg.write_text(TINY.replace("n_test = 32", "n_test = 0"))
        data = tmp_path / "ds"
        main(["gen", "--config", str(cfg), "--out", str(data)])
        calls = []
        monkeypatch.setattr(cli, "train_loop", lambda *a, **k: calls.append(1))
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: empty evaluation set: dataset at {data} has n_test = 0\n"
        assert calls == []

    def test_unexpected_exception_is_one_line(self, monkeypatch, cfg_file, tmp_path, capsys):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_gen", broken)
        assert main(["gen", "--config", cfg_file, "--out", str(tmp_path / "ds")]) == 1
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: boom\n"
        assert captured.out == ""

    def test_manifest_missing_key_is_config_error(self, cfg_file, tmp_path, capsys):
        data = tmp_path / "ds"
        main(["gen", "--config", cfg_file, "--out", str(data)])
        meta = tensorio.read_manifest(data / "dataset.json")
        del meta["n_classes"]
        tensorio.write_manifest(data / "dataset.json", meta)
        capsys.readouterr()
        assert main(["analyze", "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(data / "dataset.json") in err and "'n_classes'" in err

    @pytest.mark.parametrize(
        "edit, message",
        [({"height": 32.7}, "height must be an integer, got 32.7"),
         ({"width": 32.0}, "width must be an integer, got 32.0"),
         ({"n_train": "64"}, "n_train must be an integer, got '64'"),
         ({"n_test": "ab"}, "n_test must be an integer, got 'ab'"),
         ({"seed": 1.5}, "seed must be an integer, got 1.5"),
         ({"n_classes": True}, "n_classes must be an integer, got True"),
         ({"n_train": None}, "n_train must be an integer, got None"),
         # The sample count and the plane size stay those of the files, so
         # only the range check can catch these.
         ({"n_train": -32, "n_test": 128}, "n_train is -32; it must be at least 0"),
         ({"n_train": 100, "n_test": -4}, "n_test is -4; it must be at least 0"),
         ({"height": -32, "width": -32}, "height is -32; it must be at least 1"),
         ({"n_classes": 1}, "n_classes is 1; it must be at least 2")],
        ids=["height-float", "width-integral_float", "n_train-str", "n_test-str", "seed-float",
             "n_classes-bool", "n_train-null", "n_train-negative", "n_test-negative", "dims-negative",
             "n_classes-one"],
    )
    @pytest.mark.parametrize("command", ["analyze", "eval"])
    def test_bad_manifest_integer_is_config_error(self, command, edit, message, cfg_file, tmp_path, capsys):
        data, out = tmp_path / "ds", tmp_path / "o"
        main(["gen", "--config", cfg_file, "--out", str(data)])
        meta = tensorio.read_manifest(data / "dataset.json")
        meta.update(edit)
        tensorio.write_manifest(data / "dataset.json", meta)
        capsys.readouterr()
        if command == "analyze":
            argv = ["analyze", "--data", str(data), "--out", str(out)]
        else:
            argv = ["eval", "--config", cfg_file, "--data", str(data), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {data / 'dataset.json'}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [('{"n_train": 4,\n', "not valid JSON: "), ("7\n", "expected a JSON object, got int\n")],
        ids=["truncated", "not_an_object"],
    )
    @pytest.mark.parametrize("command", ["analyze", "eval"])
    def test_malformed_manifest_is_config_error_naming_it(
        self, command, text, message, cfg_file, tmp_path, capsys
    ):
        out = tmp_path / "o"
        if command == "analyze":
            main(["gen", "--config", cfg_file, "--out", str(tmp_path / "ds")])
            manifest = tmp_path / "ds" / "dataset.json"
            argv = ["analyze", "--data", str(tmp_path / "ds"), "--out", str(out)]
        else:
            main(["train", "--config", cfg_file, "--out", str(tmp_path / "run")])
            manifest = tmp_path / "run" / "checkpoint" / "checkpoint.json"
            argv = ["eval", "--config", cfg_file, "--checkpoint", str(manifest.parent), "--out", str(out)]
        manifest.write_text(text)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {manifest}: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_data_dir_with_comment_mark_is_config_error(self, cfg_file, tmp_path, capsys):
        # The dataset exists, but config.txt could not record its path.
        data = tmp_path / "run#2"
        main(["gen", "--config", cfg_file, "--out", str(data)])
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["eval", "--config", cfg_file, "--data", str(data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(data) in err
        assert not out.exists()


class TestAnalyzeAndFilter:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{tmp}/x.f32"],
            ["analyze", "--out", "{tmp}/scores.csv"],
        ],
        ids=["analyze_plane", "analyze_no_data"],
    )
    def test_input_must_be_a_dataset_directory(self, argv, cfg_file, tmp_path):
        main(["gen", "--config", cfg_file, "--out", str(tmp_path / "ds")])
        tensorio.write_raw(tmp_path / "x.f32", np.zeros((16, 16)))
        files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        with pytest.raises(SystemExit) as exc:
            main([a.format(tmp=tmp_path) for a in argv])
        assert exc.value.code == 2
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files

    @pytest.mark.parametrize("source", ["data"])  # one case; the id names the input it reads
    def test_analyze_zero_frm_denominator_is_numeric_error(self, source, tmp_path, capsys):
        # Finite pixels, but sigma cancels the most negative cell of the
        # flipped high band map exactly, so one FRM term divides by zero.
        img = np.random.default_rng(4).random((16, 16), dtype=np.float32)
        (_,), (high,) = compute_maps_batch(img[None], SpectralConfig())
        assert high.min() < 0
        cfg = tmp_path / "sigma.cfg"
        cfg.write_text(f"sigma = {-float(high.min())!r}\n")
        data = tmp_path / "ds"
        save_generated(data, imbalanced_specs(), n_train=1, n_test=0, dims=(16, 16), seed=4)
        path = data / "mod0.f32"
        tensorio.write_raw(path, img.reshape(1, -1))
        capsys.readouterr()
        assert main(["analyze", "--data", str(data), "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"numeric failure: {path}: non-finite frm score\n"

    @pytest.mark.parametrize(
        "metric, pixel", [(kind, np.nan) for kind in METRIC_KINDS] + [("frm", np.inf)]
    )
    def test_analyze_dataset_non_finite_pixel_rejected(self, metric, pixel, cfg_file, tmp_path, capsys):
        main(["gen", "--config", cfg_file, "--out", str(tmp_path / "ds")])
        stack = tensorio.read_raw(tmp_path / "ds" / "mod1.f32")
        stack[5, 17] = pixel
        tensorio.write_raw(tmp_path / "ds" / "mod1.f32", stack)
        capsys.readouterr()
        assert main(["analyze", "--data", str(tmp_path / "ds"), "--metric", metric]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric failure: ") and captured.err.count("\n") == 1
        assert "mod1.f32" in captured.err and metric in captured.err

    def test_analyze_dataset(self, cfg_file, tmp_path, capsys):
        main(["gen", "--config", cfg_file, "--out", str(tmp_path / "ds")])
        out = tmp_path / "scores.csv"
        assert main(["analyze", "--data", str(tmp_path / "ds"), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # header + three modalities

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 300])
    def test_analyze_dataset_scores_match_the_whole_stack(self, n, tmp_path):
        data = tmp_path / "ds"
        save_generated(data, imbalanced_specs(), n_train=n, n_test=0, dims=(16, 16), seed=n)
        stacks = load_dataset(data).images
        for kind in METRIC_KINDS:
            rows = [
                [f"mod{i}", kind, float(sample_preference(stack, SpectralConfig(), kind).mean())]
                for i, stack in enumerate(stacks)
            ]
            bench.write_csv(tmp_path / f"expected_{kind}.csv", ["input", "metric", "score"], rows)
            out = tmp_path / f"scores_{kind}.csv"
            assert main(["analyze", "--data", str(data), "--metric", kind, "--out", str(out)]) == 0
            assert out.read_bytes() == (tmp_path / f"expected_{kind}.csv").read_bytes(), kind

    def test_analyze_dataset_reads_omega_band_from_config(self, tmp_path, capsys):
        data, cfg = tmp_path / "ds", tmp_path / "omega.cfg"
        save_generated(data, imbalanced_specs(), n_train=20, n_test=0, dims=(16, 16), seed=7)
        cfg.write_text("omega_band = 0.5\n")
        capsys.readouterr()
        assert main(["analyze", "--data", str(data), "--config", str(cfg), "--metric", "mp_weighted"]) == 0
        scores = [
            float(sample_preference(stack, SpectralConfig(), "mp_weighted", 0.5).mean())
            for stack in load_dataset(data).images
        ]
        assert capsys.readouterr().out == "".join(
            f"mod{i}\tmp_weighted\t{score!r}\n" for i, score in enumerate(scores)
        )

    @pytest.mark.parametrize(
        "fault",
        ["manifest_key", "no_samples", "specs_not_list", "no_modalities", "truncated_modality",
         "header_shape", "missing_modality", "bad_label", "truncated_after_nan"],
    )
    def test_analyze_dataset_rejects_what_load_dataset_rejects(self, fault, cfg_file, tmp_path, capsys):
        data, out = tmp_path / "ds", tmp_path / "scores.csv"
        main(["gen", "--config", cfg_file, "--out", str(data)])
        damage(data, fault)
        try:
            load_dataset(data)
        except ValueError as exc:
            expected = f"config error: {exc}\n"
        except OSError as exc:
            expected = f"error: {exc}\n"
        else:
            pytest.fail("load_dataset accepted the faulty dataset")
        capsys.readouterr()
        assert main(["analyze", "--data", str(data), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == expected and captured.out == ""
        assert not out.exists()

    def test_threaded_scores_are_those_of_one_thread(self, cfg_file, tmp_path, monkeypatch, capsys):
        data = tmp_path / "ds"
        main(["gen", "--config", cfg_file, "--out", str(data)])
        threads = threading.active_count()

        def analyze(kind, cpus):
            if cpus is not None:
                monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
            out = tmp_path / f"scores_{kind}_{cpus}.csv"
            capsys.readouterr()
            assert main(["analyze", "--data", str(data), "--metric", kind, "--out", str(out)]) == 0
            monkeypatch.undo()
            # The pool is gone once the command returns.
            assert threading.active_count() == threads
            return out.read_bytes(), capsys.readouterr().out

        for kind in METRIC_KINDS:
            serial = analyze(kind, 1)
            assert len(serial[1].splitlines()) == 3
            # As found, and one worker per modality whatever the machine has.
            for cpus in (None, 3):
                assert analyze(kind, cpus) == serial, (kind, cpus)

    def test_first_non_finite_modality_is_named(self, cfg_file, tmp_path, capsys):
        data, out = tmp_path / "ds", tmp_path / "scores.csv"
        main(["gen", "--config", cfg_file, "--out", str(data)])
        for name in ("mod1.f32", "mod2.f32"):
            stack = tensorio.read_raw(data / name)
            stack[9, 40] = np.nan
            tensorio.write_raw(data / name, stack)
        capsys.readouterr()
        assert main(["analyze", "--data", str(data), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"numeric failure: {data / 'mod1.f32'}: non-finite frm score\n"
        assert not out.exists()

    def test_patch_side_is_checked_as_eval_checks_it(self, tmp_path, capsys):
        data = tmp_path / "ds"
        (tmp_path / "gen.cfg").write_text(TINY + "height = 40\nwidth = 40\n")
        main(["gen", "--config", str(tmp_path / "gen.cfg"), "--out", str(data)])
        cfg = tmp_path / "patch16.cfg"
        cfg.write_text(TINY + "patch = 16\n")
        errors = []
        for argv in (["analyze", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "scores.csv")],
                     ["eval", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "ev")]):
            capsys.readouterr()
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
            assert not Path(argv[-1]).exists()
        assert errors == [f"config error: dataset at {data} has 40x40 planes, not divisible by patch side 16\n"] * 2

    def test_analyze_dataset_never_loads_it_whole(self, cfg_file, tmp_path, monkeypatch):
        main(["gen", "--config", cfg_file, "--out", str(tmp_path / "ds")])

        def refuse(*args, **kwargs):
            raise AssertionError("analyze --data loaded the whole dataset")

        for module in (bench, synthdata):
            monkeypatch.setattr(module, "load_dataset", refuse)
        out = tmp_path / "scores.csv"
        assert main(["analyze", "--data", str(tmp_path / "ds"), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4


class TestTrainEval:
    def test_train_outputs(self, cfg_file, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", cfg_file, "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()
        assert (out / "scores.csv").exists()
        assert (out / "checkpoint" / "checkpoint.json").exists()
        assert (out / "run.json").exists()
        assert (out / "config.txt").exists()

    def test_eval_from_checkpoint_matches_train_then_eval(self, cfg_file, tmp_path):
        run = tmp_path / "run"
        main(["train", "--config", cfg_file, "--out", str(run)])
        a = tmp_path / "eval_a"
        b = tmp_path / "eval_b"
        assert main(["eval", "--config", cfg_file, "--out", str(a),
                     "--checkpoint", str(run / "checkpoint")]) == 0
        assert main(["eval", "--config", cfg_file, "--out", str(b)]) == 0
        rows_a = (a / "matrix.csv").read_text().splitlines()
        rows_b = (b / "matrix.csv").read_text().splitlines()
        assert len(rows_a) == len(rows_b) == 1 + 7 + 1
        # checkpoint round-trips through float32, so compare leniently
        for ra, rb in zip(rows_a[1:], rows_b[1:]):
            assert ra.split(",")[0] == rb.split(",")[0]

    def test_checkpoint_eval_into_its_train_run_keeps_the_run(self, cfg_file, tmp_path):
        run = tmp_path / "run"
        assert main(["train", "--config", cfg_file, "--out", str(run)]) == 0
        files = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        argv = ["eval", "--config", cfg_file, "--checkpoint", str(run / "checkpoint"), "--out", str(run)]
        assert main(argv) == 0
        assert main(argv) == 0
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file() and p.name != "matrix.csv"} == files
        assert (run / "matrix.csv").exists()

    def test_training_eval_refuses_a_train_run(self, cfg_file, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["train", "--config", cfg_file, "--out", str(run)]) == 0
        files = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(["eval", "--config", cfg_file, "--out", str(run)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "holds a train run" in err and err.count("\n") == 1
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == files

    @pytest.mark.parametrize("mask", [None])
    def test_eval_checkpoint_on_data_is_the_matrix_of_its_test_split(self, mask, cfg_file, tmp_path, capsys):
        data, run, out = tmp_path / "ds", tmp_path / "run", tmp_path / "eval"
        main(["gen", "--config", cfg_file, "--out", str(data)])
        main(["train", "--config", cfg_file, "--out", str(run)])
        argv = ["eval", "--config", cfg_file, "--checkpoint", str(run / "checkpoint"),
                "--data", str(data), "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 0
        cfg = override(load_config(cfg_file), {"data_dir": str(data)})
        net_cfg, params = load_checkpoint(run / "checkpoint")
        records = bench.run_matrix(net_cfg, params, *load_dataset(data).test_split())
        expected = tmp_path / "expected.csv"
        bench.write_run_matrix(expected, records, cfg)
        assert read(out / "matrix.csv") == read(expected)
        # stdout is matrix.csv itself, header and average row, as a tab-separated table.
        assert capsys.readouterr().out == (out / "matrix.csv").read_text().replace(",", "\t")

    def test_zero_full_mask_accuracy_leaves_every_pcr_empty(self, tmp_path, capsys):
        # One test sample that the full net gets wrong: every collapse rate
        # is relative to an accuracy of 0, so none is defined.
        cfg = tmp_path / "one.cfg"
        cfg.write_text("seed = 0\nepochs = 1\nn_train = 8\nn_test = 1\nbatch_size = 8\n")
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in (out / "matrix.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["100", "010", "001", "110", "101", "011", "111", "average"]
        assert float(rows[-2][1]) == 0.0
        assert [row[2] for row in rows] == [""] * 8

    def test_mask_option_is_a_usage_error(self, cfg_file, tmp_path, capsys):
        # eval always writes the whole matrix; there is no one-mask layout.
        out = tmp_path / "eval"
        out.mkdir()
        (out / "matrix.csv").write_text("earlier\n")
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--config", cfg_file, "--out", str(out), "--mask", "101"])
        assert exc.value.code == 2
        assert "--mask" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {"matrix.csv": b"earlier\n"}


class TestSplitMemory:
    """A command holds only the split of a dataset directory it uses."""

    # The training split is 4x the test split, so holding it shows.
    SIZES = "seed = 3\nepochs = 1\nbatch_size = 64\nn_train = 2000\nn_test = 500\nhidden = 16,8\n"

    @pytest.fixture
    def saved(self, tmp_path):
        data = tmp_path / "ds"
        cfg = tmp_path / "data.cfg"
        cfg.write_text(self.SIZES + f"data_dir = {data}\n")
        bench.save_generated_dataset(load_config(cfg), data)
        return cfg, data

    def test_eval_checkpoint_peak_is_the_test_split_and_one_widened_branch(self, saved, tmp_path):
        cfg, data = saved
        ds = load_dataset(data)
        net_cfg = net_for(ds, (16, 8))
        save_checkpoint(tmp_path / "checkpoint", net_cfg, init_network(net_cfg))
        planes = ds.n_test * ds.dims[0] * ds.dims[1]
        test_split = np.dtype(np.float32).itemsize * planes * ds.n_modalities
        widened_branch = np.dtype(np.float64).itemsize * planes
        del ds
        # The training rows are read, checked and dropped through one 1 MB
        # scratch block; forward widens one branch at a time.
        argv = ["eval", "--config", str(cfg), "--checkpoint", str(tmp_path / "checkpoint"),
                "--data", str(data), "--out", str(tmp_path / "eval")]
        code, peak = traced_peak(lambda: main(argv))
        assert code == 0
        assert peak < 1.3 * (test_split + widened_branch)

    def test_train_on_a_data_dir_holds_no_test_row(self, saved, tmp_path, monkeypatch):
        cfg, data = saved
        seen = []

        def train(train_cfg, dataset):
            seen.append((dataset.n_train, dataset.n_test, len(dataset.images[0])))
            return train_loop(train_cfg, dataset)

        monkeypatch.setattr(cli, "train_loop", train)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        assert seen == [(2000, 0, 2000)]


class TestDatasetWriters:
    """gen streams its files through the one dataset writer."""

    SIZES = "seed = 3\nn_train = 2000\nn_test = 500\n"

    @pytest.fixture
    def cfg(self, tmp_path):
        path = tmp_path / "gen.cfg"
        path.write_text(self.SIZES)
        return path

    def test_gen_peak_is_a_fraction_of_the_dataset(self, cfg, tmp_path):
        # gen holds one modality's band draws and one block of planes, never
        # the (m, n, h, w) float32 stack it writes.
        argv = ["gen", "--config", str(cfg), "--out", str(tmp_path / "ds")]
        code, peak = traced_peak(lambda: main(argv))
        assert code == 0
        dataset = np.dtype(np.float32).itemsize * 3 * 2500 * 32 * 32
        assert sum(p.stat().st_size for p in (tmp_path / "ds").glob("mod*.f32")) == dataset + 3 * 8
        assert peak < 0.5 * dataset

    def test_gen_writes_the_files_of_write_dataset(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(TINY + "height = 16\nwidth = 24\nclasses = 3\n")
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "ds")]) == 0
        ds = bench.get_dataset(load_config(cfg))
        write_dataset(
            tmp_path / "ref", ([stack] for stack in ds.images), dims=ds.dims, labels=ds.labels,
            n_train=ds.n_train, n_classes=ds.n_classes, specs=ds.specs, seed=ds.seed,
        )
        names = sorted(p.name for p in (tmp_path / "ref").iterdir())
        assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == names
        for name in names:
            assert (tmp_path / "ds" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name

    @pytest.mark.parametrize("command", ["gen"])
    def test_failed_rewrite_leaves_no_manifest(self, command, cfg_file, tmp_path, monkeypatch, capsys):
        # The output already holds a dataset; the rewrite fails on its second
        # modality file, so the old manifest must not stay beside the new mod0.
        out = tmp_path / "out"
        main(["gen", "--config", cfg_file, "--out", str(out)])
        opened = []

        def failing_open(path, mode="r", *rest, **kwargs):
            if "w" in mode:
                opened.append(path)
                if len(opened) == 2:
                    raise OSError(f"{path}: simulated write failure")
            return open(path, mode, *rest, **kwargs)

        monkeypatch.setattr(tensorio, "open", failing_open, raising=False)
        capsys.readouterr()
        assert main([command, "--config", cfg_file, "--out", str(out)]) == 2
        assert "simulated write failure" in capsys.readouterr().err
        monkeypatch.undo()
        assert opened == [out / "mod0.f32", out / "mod1.f32"]
        assert not (out / "dataset.json").exists()
        assert main(["analyze", "--data", str(out)]) == 2


class TestSweepCommands:
    def test_sweep_window(self, cfg_file, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep-window", "--config", cfg_file, "--q", "1,2", "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()

    def test_sweep_window_overlap_flag(self, cfg_file, tmp_path):
        out = tmp_path / "sw6"
        assert main(["sweep-window", "--config", cfg_file, "--q", "6", "--out", str(out)]) == 2
        overlap = tmp_path / "overlap.cfg"
        overlap.write_text(TINY + "allow_overlap = true\n")
        assert main(["sweep-window", "--config", str(overlap), "--q", "6", "--out", str(out)]) == 0

    def test_sweep_params_single_tuple(self, cfg_file, tmp_path):
        out = tmp_path / "sp"
        assert main(["sweep-params", "--config", cfg_file, "--out", str(out),
                     "--tuples", "1.5,1,6,0.7"]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_sweep_params_tuple_with_weights_below_zero_runs_no_cell(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "sp"
        assert main(["sweep-params", "--config", cfg_file, "--out", str(out),
                     "--tuples", "1.5,1,6,0.7;0.8,1,6,0.7"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: weights can go below 0: need alpha >= 0 and alpha >= beta, " \
            "got alpha=0.8, beta=1.0\n"
        assert not (out / "t0").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep-window", "--q", ""], "--q lists no values to sweep"),
            (["sweep-window", "--q", ","], "--q lists no values to sweep"),
            (["sweep-frm", "--kinds", ","], "--kinds lists no values to sweep"),
            (["sweep-frm", "--kinds", ""], "--kinds lists no values to sweep"),
            (["sweep-params", "--tuples", ""], "--tuples lists no values to sweep"),
            (["sweep-params", "--tuples", "1.5,1,6,0.7;"], "expected alpha,beta,lambda,gamma, got ''"),
            (["sweep-params", "--tuples", "1.5,1,x,0.7"],
             "expected alpha,beta,lambda,gamma, got '1.5,1,x,0.7'"),
        ],
        ids=["q_empty", "q_comma", "kinds_comma", "kinds_empty", "tuples_empty",
             "tuples_trailing_semicolon", "tuples_not_a_number"],
    )
    def test_empty_or_unparsable_grid_is_config_error(self, argv, message, cfg_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main([*argv, "--config", cfg_file, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_sweep_frm(self, cfg_file, tmp_path):
        out = tmp_path / "sf"
        assert main(["sweep-frm", "--config", cfg_file, "--out", str(out),
                     "--kinds", "frm,mp_sum"]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_filter_study(self, cfg_file, tmp_path):
        out = tmp_path / "fs"
        assert main(["filter-study", "--config", cfg_file, "--windows", "16",
                     "--kinds", "low_pass", "--out", str(out)]) == 0
        assert (out / "curves.csv").exists()


class TestNtkCheck:
    def test_report_csv(self, tmp_path):
        out = tmp_path / "ntk.csv"
        assert main(["ntk-check", "--n", "8", "--d", "16", "--steps", "20",
                     "--seed", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "direction,lambda,factor,max_rel_deviation"
        assert len(lines) == 9

    def test_no_live_direction_is_numeric_error(self, tmp_path, capsys):
        # One sample in one dimension: its only eigenvalue, about 1.2e-9, is
        # below the cut, so there is no direction to judge.
        out = tmp_path / "ntk.csv"
        assert main(["ntk-check", "--n", "1", "--d", "1", "--seed", "10306", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric failure: no live eigen-direction: the largest eigenvalue ")
        assert captured.err.endswith(" is not above the 1e-08 cut\n")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_explicit_unstable_eta(self, tmp_path):
        assert main(["ntk-check", "--n", "8", "--d", "16", "--eta", "1e9"]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [(["--steps", "-1"], "steps must be >= 0, got -1"),
         (["--n", "0"], "x holds no samples or no features: shape (0, 64)")],
        ids=["steps", "n"],
    )
    def test_negative_steps_or_no_samples_is_config_error(self, argv, message, capsys):
        assert main(["ntk-check", *argv]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestDeterminism:
    @staticmethod
    def files(root):
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    def test_train_on_saved_data_matches_train_on_its_config(self, tmp_path):
        # A generated dataset holds the float32 values that gen saves, so
        # training on the saved copy is training on the same pixels.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY + "mode = hybrid\n")
        data = tmp_path / "ds"
        on_disk = tmp_path / "data.cfg"
        on_disk.write_text(TINY + f"mode = hybrid\ndata_dir = {data}\n")
        assert main(["gen", "--config", str(cfg), "--out", str(data)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["train", "--config", str(on_disk), "--out", str(tmp_path / "b")]) == 0
        # run.json and config.txt record data_dir, so only they may differ.
        compared = ["trace.csv", "scores.csv"] + sorted(
            str(p.relative_to(tmp_path / "a")) for p in (tmp_path / "a" / "checkpoint").iterdir()
        )
        assert "checkpoint/clf.w.f32" in compared
        for name in compared:
            assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name), name

    def test_reruns_are_byte_identical(self, cfg_file, tmp_path):
        cell = ["config.txt", "trace.csv", "matrix.csv", "cell.json"]
        for cmd, outputs in [
            (["gen"], ["dataset.json", "mod0.f32", "labels.f32"]),
            (["train"], ["trace.csv", "scores.csv", "run.json", "config.txt"]),
            (["eval"], ["matrix.csv"]),
            (["sweep-window", "--q", "1,2"], ["summary.csv"] + [f"q2/{f}" for f in cell]),
            (["sweep-params", "--tuples", "1.5,1,6,0.7;1.2,1,6,0.7"],
             ["summary.csv"] + [f"t1/{f}" for f in cell]),
            (["sweep-frm", "--kinds", "frm,mp_sum"], ["summary.csv"] + [f"mp_sum/{f}" for f in cell]),
            (["filter-study", "--windows", "16", "--kinds", "low_pass"], ["summary.csv", "curves.csv"]),
        ]:
            a, b = tmp_path / f"{cmd[0]}_a", tmp_path / f"{cmd[0]}_b"
            assert main(cmd + ["--config", cfg_file, "--out", str(a)]) == 0
            assert main(cmd + ["--config", cfg_file, "--out", str(b)]) == 0
            files = self.files(a)
            assert set(outputs) <= set(files), cmd
            assert files == self.files(b), cmd
            # A second invocation into the same directory (a resume for the
            # sweeps) leaves every file as it was.
            assert main(cmd + ["--config", cfg_file, "--out", str(a)]) == 0
            assert self.files(a) == files, cmd
