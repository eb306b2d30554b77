import numpy as np
import pytest

from freqbal import tensorio
from freqbal.cli import main
from freqbal.preference import METRIC_KINDS
from freqbal.seeds import stream_rng

TINY = "seed = 0\nepochs = 1\nbatch_size = 32\nn_train = 64\nn_test = 32\nhidden = 16,8\n"


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY)
    return str(path)


def read(path):
    return path.read_bytes()


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
        # Poison the sample that the shuffle puts first in the second batch.
        sample = stream_rng(0, "shuffle").permutation(64)[32]
        stack = tensorio.read_raw(data / "mod1.f32")
        stack[sample, 17] = np.inf
        tensorio.write_raw(data / "mod1.f32", stack)
        cfg = tmp_path / "data.cfg"
        cfg.write_text(TINY + f"data_dir = {data}\n")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1
        assert "modality 1" in err and "iteration 1 " in err
        assert len((out / "trace.csv").read_text().splitlines()) == 2  # header + iteration 0


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

    def test_analyze_non_finite_plane_rejected(self, tmp_path):
        img = np.random.default_rng(3).random((16, 16))
        img[3, 5] = np.nan
        tensorio.write_raw(tmp_path / "nan.f32", img)
        assert main(["analyze", str(tmp_path / "nan.f32")]) == 2

    @pytest.mark.parametrize(
        "metric, pixel", [(kind, np.nan) for kind in METRIC_KINDS] + [("frm", np.inf)]
    )
    def test_analyze_dataset_non_finite_pixel_rejected(self, metric, pixel, cfg_file, tmp_path, capsys):
        main(["gen", "--config", cfg_file, "--out", str(tmp_path / "ds")])
        stack = tensorio.read_raw(tmp_path / "ds" / "mod1.f32")
        stack[5, 17] = pixel
        tensorio.write_raw(tmp_path / "ds" / "mod1.f32", stack)
        capsys.readouterr()
        assert main(["analyze", "--data", str(tmp_path / "ds"), "--metric", metric]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
        assert "mod1.f32" in captured.err and metric in captured.err

    def test_analyze_dataset(self, cfg_file, tmp_path, capsys):
        main(["gen", "--config", cfg_file, "--out", str(tmp_path / "ds")])
        out = tmp_path / "scores.csv"
        assert main(["analyze", "--data", str(tmp_path / "ds"), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # header + three modalities

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
    def test_reruns_are_byte_identical(self, cfg_file, tmp_path):
        for cmd, outputs in [
            (["gen"], ["dataset.json", "mod0.f32", "labels.f32"]),
            (["train"], ["trace.csv", "scores.csv", "run.json", "config.txt"]),
            (["eval"], ["matrix.csv"]),
        ]:
            a, b = tmp_path / f"{cmd[0]}_a", tmp_path / f"{cmd[0]}_b"
            assert main(cmd + ["--config", cfg_file, "--out", str(a)]) == 0
            assert main(cmd + ["--config", cfg_file, "--out", str(b)]) == 0
            for name in outputs:
                assert read(a / name) == read(b / name), (cmd, name)
