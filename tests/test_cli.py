import numpy as np
import pytest

from freqbal import bench, cli, synthdata, tensorio
from freqbal.cli import main
from freqbal.preference import METRIC_KINDS, sample_preference
from freqbal.seeds import stream_rng
from freqbal.spectral import SpectralConfig
from freqbal.synthdata import generate, imbalanced_specs, load_dataset, save_dataset

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
    if fault in ("manifest_key", "no_samples", "specs_not_list"):
        meta = tensorio.read_manifest(data / "dataset.json")
        if fault == "manifest_key":
            del meta["height"]
        elif fault == "specs_not_list":
            meta["specs"] = 7
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
            ["analyze", "{tmp}/nope.pgm"],
            ["analyze", "--data", "{tmp}/no_dataset"],
            ["eval", "--config", "{cfg}", "--out", "{tmp}/o", "--checkpoint", "{tmp}/no_checkpoint"],
        ],
        ids=["analyze_image", "analyze_data", "eval_checkpoint"],
    )
    def test_missing_input_is_clean_error(self, argv, cfg_file, tmp_path, capsys):
        argv = [a.format(tmp=tmp_path, cfg=cfg_file) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_bad_metric_fails_at_load(self, tmp_path):
        cfg = tmp_path / "bad_metric.cfg"
        cfg.write_text(TINY + "metric = mp_cubed\n")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_numeric_failure_flushes_trace(self, tmp_path):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(TINY.replace("epochs = 1", "epochs = 3") + "eta = 1e12\n")
        out = tmp_path / "boom"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert (out / "trace.csv").exists()

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
        assert not any(out.iterdir())

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
        "where, key",
        [(None, "net"), (None, "tensors"), ("net", "hidden"), ("net", "seed"), ("tensors", "name"),
         ("tensors", "shape")],
    )
    def test_checkpoint_missing_key_is_config_error(self, where, key, cfg_file, tmp_path, capsys):
        run, out = tmp_path / "run", tmp_path / "eval"
        main(["train", "--config", cfg_file, "--out", str(run)])
        manifest = run / "checkpoint" / "checkpoint.json"
        meta = tensorio.read_manifest(manifest)
        if where is None:
            del meta[key]
        elif where == "net":
            del meta["net"][key]
        else:
            del meta["tensors"][2][key]
        tensorio.write_manifest(manifest, meta)
        capsys.readouterr()
        argv = ["eval", "--config", cfg_file, "--checkpoint", str(manifest.parent), "--out", str(out)]
        assert main(argv) == 2
        scope = {None: "", "net": " net", "tensors": " tensors[2]"}[where]
        assert capsys.readouterr().err == f"config error: {manifest}{scope}: missing key {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_spec_is_config_error(self, value, tmp_path, capsys):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(TINY + f"mod0.low_energy = {value}\n")
        out = tmp_path / "ds"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: mod0: low_energy must be finite, got {value}\n"
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

    @pytest.mark.parametrize("command", ["filter", "filter-study"])
    def test_non_finite_pixel_in_filtered_data_is_numeric_error(self, command, cfg_file, tmp_path, capsys):
        data, out = tmp_path / "ds", tmp_path / "out"
        main(["gen", "--config", cfg_file, "--out", str(data)])
        stack = tensorio.read_raw(data / "mod2.f32")
        stack[70, 9] = np.nan
        stack[75, 3] = np.inf
        tensorio.write_raw(data / "mod2.f32", stack)
        cfg = tmp_path / "data.cfg"
        cfg.write_text(TINY + f"data_dir = {data}\n")
        argv = {
            "filter": ["filter", "--data", str(data), "--out", str(out), "--kind", "low_pass", "--window", "4"],
            "filter-study": ["filter-study", "--config", str(cfg), "--out", str(out), "--windows", "4"],
        }[command]
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err == f"numeric failure: {data / 'mod2.f32'}: non-finite value in row 70\n"
        assert not (out / "summary.csv").exists() and not (out / "mod0.f32").exists()

    @pytest.mark.parametrize(
        "extra, pixel, code, message",
        [
            (["--kinds", "low_pass,band_pass"], None, 2, "config error: unknown filter kind 'band_pass'\n"),
            (["--windows", "16,33"], None, 2, "config error: window side 33 out of range for 32x32 plane\n"),
            (["--windows", "0"], None, 2, "config error: window side 0 out of range for 32x32 plane\n"),
            (["--windows", "16"], (0, 5), 3, "numeric failure: {data}/mod0.f32: non-finite value in row 5\n"),
            (["--windows", "16"], (2, 90), 3, "numeric failure: {data}/mod2.f32: non-finite value in row 90\n"),
            (["--windows", ""], (1, 80), 3, "numeric failure: {data}/mod1.f32: non-finite value in row 80\n"),
            (["--kinds", ""], (1, 80), 3, "numeric failure: {data}/mod1.f32: non-finite value in row 80\n"),
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
    def test_analyze_pgm(self, tmp_path, capsys):
        img = np.random.default_rng(0).random((16, 16))
        tensorio.write_pgm(tmp_path / "img.pgm", img)
        out = tmp_path / "scores.csv"
        assert main(["analyze", str(tmp_path / "img.pgm"), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "input,metric,score"
        assert lines[1].startswith("img.pgm,frm,")

    def test_analyze_center_crop(self, tmp_path):
        img = np.random.default_rng(1).random((20, 19))
        tensorio.write_pgm(tmp_path / "odd.pgm", img)
        assert main(["analyze", str(tmp_path / "odd.pgm")]) == 2  # not divisible
        assert main(["analyze", str(tmp_path / "odd.pgm"), "--center-crop"]) == 0

    def test_analyze_non_finite_plane_rejected(self, tmp_path, capsys):
        img = np.random.default_rng(3).random((16, 16))
        img[3, 5] = np.nan
        path = tmp_path / "nan.f32"
        tensorio.write_raw(path, img)
        out = tmp_path / "out.f32"
        for argv in (
            ["analyze", str(path)],
            ["filter", str(path), str(out), "--kind", "low_pass", "--window", "8"],
        ):
            capsys.readouterr()
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"numeric failure: {path}: non-finite value in row 3\n"
        assert not out.exists()

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
        save_dataset(data, generate(imbalanced_specs(), n_train=n, n_test=0, dims=(16, 16), seed=n))
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

    @pytest.mark.parametrize(
        "fault",
        ["manifest_key", "no_samples", "specs_not_list", "truncated_modality", "header_shape",
         "missing_modality", "bad_label", "truncated_after_nan"],
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

    def test_analyze_dataset_never_loads_it_whole(self, cfg_file, tmp_path, monkeypatch):
        main(["gen", "--config", cfg_file, "--out", str(tmp_path / "ds")])

        def refuse(*args, **kwargs):
            raise AssertionError("analyze --data loaded the whole dataset")

        for module in (cli, synthdata):
            monkeypatch.setattr(module, "load_dataset", refuse)
        out = tmp_path / "scores.csv"
        assert main(["analyze", "--data", str(tmp_path / "ds"), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_filter_single_image_roundtrip(self, tmp_path):
        img = np.random.default_rng(2).random((16, 16))
        tensorio.write_raw(tmp_path / "in.f32", img)
        lp, hp = tmp_path / "lp.f32", tmp_path / "hp.f32"
        assert main(["filter", str(tmp_path / "in.f32"), str(lp), "--kind", "low_pass", "--window", "8"]) == 0
        assert main(["filter", str(tmp_path / "in.f32"), str(hp), "--kind", "high_pass", "--window", "8"]) == 0
        total = tensorio.read_raw(lp) + tensorio.read_raw(hp)
        assert np.abs(total - tensorio.read_raw(tmp_path / "in.f32")).max() < 1e-5

    def test_filter_dataset(self, cfg_file, tmp_path):
        main(["gen", "--config", cfg_file, "--out", str(tmp_path / "ds")])
        assert main(["filter", "--data", str(tmp_path / "ds"), "--out", str(tmp_path / "lp"),
                     "--kind", "low_pass", "--window", "16"]) == 0
        assert (tmp_path / "lp" / "dataset.json").exists()


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

    def test_eval_single_mask(self, cfg_file, tmp_path):
        run = tmp_path / "run"
        main(["train", "--config", cfg_file, "--out", str(run)])
        out = tmp_path / "mask_eval"
        assert main(["eval", "--config", cfg_file, "--out", str(out),
                     "--checkpoint", str(run / "checkpoint"), "--mask", "101"]) == 0
        lines = (out / "matrix.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("101,")

    @pytest.mark.parametrize("mask", ["1x1", "000", "10"])
    def test_malformed_mask_is_config_error(self, mask, cfg_file, tmp_path, capsys):
        out = tmp_path / "mask_eval"
        assert main(["eval", "--config", cfg_file, "--out", str(out), "--mask", mask]) == 2
        assert repr(mask) in capsys.readouterr().err
        assert not (out / "matrix.csv").exists()


class TestSweepCommands:
    def test_sweep_window(self, cfg_file, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep-window", "--config", cfg_file, "--q", "1,2", "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()

    def test_sweep_window_overlap_flag(self, cfg_file, tmp_path):
        out = tmp_path / "sw6"
        assert main(["sweep-window", "--config", cfg_file, "--q", "6", "--out", str(out)]) == 2
        assert main(["sweep-window", "--config", cfg_file, "--q", "6", "--out", str(out),
                     "--allow-overlap"]) == 0

    def test_sweep_params_single_tuple(self, cfg_file, tmp_path):
        out = tmp_path / "sp"
        assert main(["sweep-params", "--config", cfg_file, "--out", str(out),
                     "--tuples", "1.5,1,6,0.7"]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 2

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

    def test_explicit_unstable_eta(self, tmp_path):
        assert main(["ntk-check", "--n", "8", "--d", "16", "--eta", "1e9"]) == 2


class TestDeterminism:
    @staticmethod
    def files(root):
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

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
