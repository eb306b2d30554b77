import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from memtrace import traced_peak

import freqbal.bench as bench
from freqbal import tensorio, tinynet
from freqbal.bench import (
    filter_dataset,
    filter_study,
    mask_label,
    mask_order,
    matrix_average,
    pcr,
    run_matrix,
    sweep_frm_variants,
    sweep_params,
    sweep_window,
    train_and_eval,
    write_csv,
    write_run_matrix,
)
from freqbal.cli import main
from freqbal.config import config_hash, override, parse_config
from freqbal.errors import ConfigError
from freqbal.spectral import fft_filter, high_pass
from freqbal.synthdata import dataset_digest, generate, imbalanced_specs
from freqbal.tinynet import evaluate

GOLDEN = Path(__file__).parent / "data"

TINY_CONFIG = (
    "seed = 0\nepochs = 1\nbatch_size = 32\nn_train = 64\nn_test = 32\nhidden = 16,8\n"
)


def tiny_cfg(extra=""):
    return parse_config(TINY_CONFIG + extra)


class TestPcr:
    # Printed metric pairs and collapse rates from the reference tables;
    # arithmetic must land within rounding (+-0.01).
    TABLE_PAIRS = [
        (98.12, 80.10, 18.37),
        (98.12, 95.21, 2.97),
        (98.12, 90.94, 7.32),
        (98.12, 96.20, 1.96),
        (98.12, 92.24, 5.99),
        (98.12, 97.79, 0.34),
        (97.39, 83.92, 13.83),
        (97.39, 93.65, 3.84),
        (97.39, 89.60, 8.00),
        (97.39, 95.43, 2.01),
        (97.39, 93.26, 4.24),
        (97.39, 96.74, 0.67),
        (98.74, 99.27, -0.54),
        (90.14, 85.07, 5.62),
        (90.14, 74.95, 16.85),
    ]

    @pytest.mark.parametrize("full,miss,expected", TABLE_PAIRS)
    def test_reproduces_printed_cells(self, full, miss, expected):
        assert pcr(full, miss) == pytest.approx(expected, abs=0.01)

    def test_equal_metrics_give_zero(self):
        assert pcr(55.5, 55.5) == 0.0

    def test_negative_is_legal(self):
        assert pcr(99.13, 99.27) == pytest.approx(-0.1412, abs=0.0001)

    def test_non_positive_reference_rejected(self):
        with pytest.raises(ValueError):
            pcr(0.0, 1.0)


class TestMasks:
    def test_two_modalities(self):
        masks = mask_order(2)
        assert masks == [(True, False), (False, True), (True, True)]

    def test_three_modalities(self):
        masks = mask_order(3)
        assert len(masks) == 7
        assert masks[0] == (True, False, False)
        assert masks[-1] == (True, True, True)
        assert mask_label(masks[1]) == "010"


class TestRunMatrix:
    def test_rows_and_average(self, tmp_path):
        cfg = tiny_cfg()
        net_cfg, params, _, records = train_and_eval(cfg, bench.get_dataset(cfg))
        assert len(records) == 7
        avg_acc, avg_pcr = matrix_average(records)
        assert avg_acc == pytest.approx(float(np.mean([r.acc for r in records])), abs=1e-9)
        defined = [r.pcr for r in records if r.pcr is not None]
        assert len(defined) == 6
        assert avg_pcr == pytest.approx(float(np.mean(defined)), abs=1e-9)
        write_run_matrix(tmp_path / "matrix.csv", records, cfg)
        lines = (tmp_path / "matrix.csv").read_text().splitlines()
        assert len(lines) == 1 + 7 + 1
        assert lines[-1].startswith("average,")
        full_row = [l for l in lines if l.startswith("111,")][0]
        assert full_row.split(",")[2] == ""  # collapse undefined for the reference row
        # Every row, the average too, carries the run's mode, seed and config hash.
        for line in lines[1:]:
            assert line.split(",")[3:] == ["none", "0", config_hash(cfg)]

    @pytest.mark.parametrize("aux", ["none", "hybrid"])
    def test_one_encoder_pass_matches_per_mask_evaluation(self, aux, monkeypatch):
        cfg = tiny_cfg(f"mode = {aux}\n")
        net_cfg, params, _, _ = train_and_eval(cfg, bench.get_dataset(cfg))
        inputs, labels = generate(imbalanced_specs(), n_train=0, n_test=40, seed=3).test_split()
        inputs = [x.astype(np.float32) for x in inputs]
        encodes = []
        encode = tinynet._encode

        def counting_encode(*args):
            encodes.append(list(args[3]))
            return encode(*args)

        monkeypatch.setattr(tinynet, "_encode", counting_encode)
        records = run_matrix(net_cfg, params, inputs, labels)
        assert encodes == [[True, True, True]]
        # The matrix as one evaluate call per mask, the full mask first.
        [full] = evaluate(net_cfg, params, inputs, labels)
        assert [r.mask for r in records] == mask_order(3)
        for r in records:
            sparse = [x if present else None for x, present in zip(inputs, r.mask)]
            [acc] = evaluate(net_cfg, params, sparse, labels, [r.mask])
            assert r.acc == acc
            assert r.pcr == (None if all(r.mask) else pcr(full, acc))

    def test_matrix_header_golden(self, tmp_path):
        cfg = tiny_cfg()
        net_cfg, params, _, records = train_and_eval(cfg, bench.get_dataset(cfg))
        write_run_matrix(tmp_path / "matrix.csv", records, cfg)
        header = (tmp_path / "matrix.csv").read_text().splitlines()[0]
        assert header == (GOLDEN / "matrix_header.csv").read_text().strip()


class TestCsv:
    def test_deterministic_bytes(self, tmp_path):
        rows = [[1, 0.1 + 0.2, None, "x"], [2, float("nan"), 3.5, "y"]]
        write_csv(tmp_path / "a.csv", ["i", "v", "w", "s"], rows)
        write_csv(tmp_path / "b.csv", ["i", "v", "w", "s"], rows)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        text = (tmp_path / "a.csv").read_text()
        assert "0.30000000000000004" in text  # full-precision repr
        assert ",nan," in text
        assert ",,x" in text.splitlines()[1]

    def test_trace_header_golden(self, tmp_path):
        cfg = tiny_cfg()
        _, _, trace, _ = train_and_eval(cfg, bench.get_dataset(cfg))
        bench.write_trace_csv(tmp_path / "trace.csv", trace)
        header = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert header == (GOLDEN / "trace_header.csv").read_text().strip()

    def test_scores_csv_long_format(self, tmp_path):
        cfg = tiny_cfg()
        _, _, trace, _ = train_and_eval(cfg, bench.get_dataset(cfg))
        bench.write_scores_csv(tmp_path / "scores.csv", trace)
        lines = (tmp_path / "scores.csv").read_text().splitlines()
        assert lines[0] == "iteration,modality,frm_raw,frm_smooth"
        assert len(lines) == 1 + len(trace) * 3
        assert lines[1].startswith("0,0,")


class TestSweeps:
    def test_window_sweep_and_resume(self, tmp_path, monkeypatch):
        cfg = tiny_cfg()
        rows = sweep_window(cfg, [1, 2], tmp_path / "sw")
        assert len(rows) == 2
        assert (tmp_path / "sw" / "q1" / "matrix.csv").exists()
        summary_before = (tmp_path / "sw" / "summary.csv").read_bytes()

        calls = []
        original = bench.train_and_eval
        monkeypatch.setattr(bench, "train_and_eval", lambda *a, **k: calls.append(1) or original(*a, **k))
        rows2 = sweep_window(cfg, [1, 2], tmp_path / "sw")
        assert calls == []  # both cells skipped
        assert rows2 == rows
        assert (tmp_path / "sw" / "summary.csv").read_bytes() == summary_before

    def test_window_sweep_rejects_overlap_without_flag(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep_window(tiny_cfg(), [6], tmp_path / "sw")

    def test_window_sweep_overlap_with_flag(self, tmp_path):
        cfg = tiny_cfg("allow_overlap = true\n")
        rows = sweep_window(cfg, [6], tmp_path / "sw")
        assert len(rows) == 1

    def test_params_sweep(self, tmp_path):
        tuples = [(1.5, 1.0, 6.0, 0.7), (1.2, 1.0, 6.0, 0.7)]
        rows = sweep_params(tiny_cfg(), tuples, tmp_path / "sp")
        assert len(rows) == 2
        assert (tmp_path / "sp" / "summary.csv").exists()
        assert rows[0][:4] == [1.5, 1.0, 6.0, 0.7]

    def test_frm_sweep_variants(self, tmp_path):
        rows = sweep_frm_variants(tiny_cfg(), tmp_path / "sf")
        assert [r[0] for r in rows] == ["frm", "mp_low", "mp_sum", "mp_weighted"]

    def test_frm_sweep_rejects_unknown_kind(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep_frm_variants(tiny_cfg(), tmp_path / "sf", kinds=["frm", "mp_cubed"])

    def test_bad_kind_fails_before_any_cell_runs(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep_frm_variants(tiny_cfg(), tmp_path / "sf", kinds=["frm", "mp_cubed"])
        assert not (tmp_path / "sf" / "frm").exists()

    def test_resume_after_crash_under_another_config(self, tmp_path, monkeypatch):
        # A rerun under a new config that dies before its marker is written
        # must not leave the old marker vouching for the new run's files.
        out = tmp_path / "sw"
        rows = sweep_window(tiny_cfg(), [1], out)
        matrix = (out / "q1" / "matrix.csv").read_bytes()

        def crash(path, entries):
            raise OSError("killed")

        with monkeypatch.context() as patch:
            patch.setattr(bench.tensorio, "write_manifest", crash)
            with pytest.raises(OSError):
                sweep_window(parse_config(TINY_CONFIG.replace("seed = 0", "seed = 1")), [1], out)
        assert not (out / "q1" / "cell.json").exists()

        assert sweep_window(tiny_cfg(), [1], out) == rows
        assert (out / "q1" / "matrix.csv").read_bytes() == matrix
        assert "seed = 0\n" in (out / "q1" / "config.txt").read_text()

    def test_one_dataset_per_command(self, tmp_path, monkeypatch):
        calls = []
        original = bench.get_dataset
        monkeypatch.setattr(bench, "get_dataset", lambda cfg: calls.append(1) or original(cfg))
        tuples = [(1.5, 1.0, 6.0, 0.7), (1.2, 1.0, 6.0, 0.7)]
        sweep_params(tiny_cfg(), tuples, tmp_path / "sp")
        assert len(calls) == 1
        sweep_params(tiny_cfg(), tuples, tmp_path / "sp")
        assert len(calls) == 1  # a fully cached resume loads nothing

    @pytest.mark.parametrize(
        "change, data_dir",
        [({"seed": 1}, False), ({"n_train": 96}, False), ({"n_train": 96}, True)],
        ids=["seed", "n_train", "n_train_with_data_dir"],
    )
    def test_cells_on_other_data_fail_before_any_cell(self, change, data_dir, tmp_path):
        cfg = tiny_cfg()
        if data_dir:
            bench.save_generated_dataset(cfg, tmp_path / "dd")
            cfg = override(cfg, {"data_dir": tmp_path / "dd"})
        cells = [("a", [0], cfg), ("b", [1], cfg), ("c", [2], override(cfg, change))]
        with pytest.raises(ConfigError, match="sweep cell c uses other data than cell a"):
            bench.run_sweep(cells, ["i"], tmp_path / "sw")
        assert not (tmp_path / "sw").exists()

    def test_seed_may_vary_on_a_data_dir(self, tmp_path):
        bench.save_generated_dataset(tiny_cfg(), tmp_path / "dd")
        cfg = override(tiny_cfg(), {"data_dir": tmp_path / "dd"})
        cells = [("s0", [0], cfg), ("s1", [1], override(cfg, {"seed": 1}))]
        rows = bench.run_sweep(cells, ["seed"], tmp_path / "sw")
        assert [row[-2] for row in rows] == [0, 1]

    def test_new_data_dir_dataset_reruns_cells(self, tmp_path, capsys):
        data = tmp_path / "dd"
        bench.save_generated_dataset(tiny_cfg(), data)
        cfg = override(tiny_cfg(), {"data_dir": data})
        sweep_window(cfg, [1], tmp_path / "sw")
        bench.save_generated_dataset(override(cfg, {"seed": 1}), data)
        capsys.readouterr()
        rows = sweep_window(cfg, [1], tmp_path / "sw")
        assert capsys.readouterr().err.rsplit(" ", 1)[0] == "sweep [1/1] q1 ran"
        assert rows == sweep_window(cfg, [1], tmp_path / "fresh")
        sweep_window(cfg, [1], tmp_path / "sw")
        assert capsys.readouterr().err.splitlines()[-1] == "sweep [1/1] q1 cached"

    def test_modality_files_the_manifest_does_not_name_leave_the_digest(self, tmp_path, capsys):
        # A 4-modality gen, then a 3-modality gen into the same directory,
        # leaves mod3.f32 behind; the digest and the cache ignore it.
        four = tmp_path / "four.cfg"
        four.write_text(TINY_CONFIG + "".join(f"mod{i}.low_energy = {i + 1}\n" for i in range(4)))
        three = tmp_path / "three.cfg"
        three.write_text(TINY_CONFIG)
        data, fresh = tmp_path / "dd", tmp_path / "fresh"
        for cfg, out in ((four, data), (three, data), (three, fresh)):
            assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        assert (data / "mod3.f32").exists()
        assert dataset_digest(data) == dataset_digest(fresh)
        cfg = override(tiny_cfg(), {"data_dir": data})
        sweep_window(cfg, [1], tmp_path / "sw")
        (data / "mod3.f32").write_bytes(b"changed")
        capsys.readouterr()
        sweep_window(cfg, [1], tmp_path / "sw")
        assert capsys.readouterr().err.splitlines() == ["sweep [1/1] q1 cached"]

    def test_generated_data_marker_has_no_data_entry(self, tmp_path):
        sweep_window(tiny_cfg(), [1], tmp_path / "sw")
        meta = tensorio.read_manifest(tmp_path / "sw" / "q1" / "cell.json")
        assert sorted(meta) == ["avg_acc", "avg_pcr", "config", "seed"]

    def test_progress_on_stderr(self, tmp_path, capsys):
        sweep_window(tiny_cfg(), [1, 2], tmp_path / "sw")
        err = capsys.readouterr().err.splitlines()
        assert [line.rsplit(" ", 1)[0] for line in err] == ["sweep [1/2] q1 ran", "sweep [2/2] q2 ran"]
        assert all(line.endswith("s") for line in err)
        sweep_window(tiny_cfg(), [1, 2], tmp_path / "sw")
        assert capsys.readouterr().err.splitlines() == ["sweep [1/2] q1 cached", "sweep [2/2] q2 cached"]


class TestFilterStudy:
    def test_complementary_filters_recompose_raw(self):
        ds = generate(imbalanced_specs(), n_train=6, n_test=2, seed=3)
        low = filter_dataset(ds, 16)
        for stack, lo in zip(ds.images, low.images):
            hi = high_pass(stack, lo.copy())
            assert np.abs(lo + hi - stack).max() < 1e-6

    def test_filter_dataset_is_pure(self):
        ds = generate(imbalanced_specs(), n_train=6, n_test=2, seed=3)
        before = [stack.copy() for stack in ds.images]
        labels = ds.labels.copy()
        out = filter_dataset(ds, 8)
        for stack, lo in zip(ds.images, out.images):
            high_pass(stack, lo.copy())
        for stack, copy in zip(ds.images, before):
            assert np.array_equal(stack, copy)
        assert np.array_equal(ds.labels, labels)
        assert all(a is not b for a, b in zip(out.images, ds.images))
        assert out.labels is ds.labels
        assert (out.n_train, out.n_classes, out.specs, out.seed) == (
            ds.n_train, ds.n_classes, ds.specs, ds.seed,
        )

    def test_filtered_stacks_are_float32(self):
        ds = generate(imbalanced_specs(), n_train=100, n_test=30, seed=4)
        low = filter_dataset(ds, 8)
        for stack, lo in zip(ds.images, low.images):
            hi = high_pass(stack, lo.copy())
            assert lo.dtype == hi.dtype == np.float32
            assert lo.shape == hi.shape == stack.shape
            # The low pass is the float64 filter rounded once; the high pass
            # is the stack minus that rounded low pass, in float32.
            assert lo.tobytes() == fft_filter(stack.astype(np.float64), 8).astype(np.float32).tobytes()
            assert hi.tobytes() == (stack - lo).tobytes()

    @pytest.mark.parametrize("n", [16], ids=["low_pass"])
    def test_filtering_holds_little_beyond_the_float32_result(self, n):
        # Only the float32 stacks and one block's float64 temporaries are
        # allocated; float64 stacks made the peak 2.34 times the result.
        ds = generate(imbalanced_specs(), n_train=2000, n_test=500, seed=5)
        filter_dataset(generate(imbalanced_specs(), n_train=1, n_test=1), n)
        out, peak = traced_peak(lambda: filter_dataset(ds, n))
        assert peak < 1.15 * sum(stack.nbytes for stack in out.images)

    def test_curves_and_summary(self, tmp_path):
        cfg = parse_config(
            "seed = 0\nepochs = 2\nbatch_size = 32\nn_train = 64\nn_test = 32\nhidden = 16,8\n"
        )
        rows = filter_study(cfg, [16], ["low_pass", "high_pass"], tmp_path / "fs")
        kinds = [r[0] for r in rows]
        assert kinds == ["raw", "low_pass", "high_pass"]
        curves = (tmp_path / "fs" / "curves.csv").read_text().splitlines()
        assert curves[0] == "kind,window,seed,epoch,train_loss,eval_acc"
        assert len(curves) == 1 + 3 * 2  # three variants x two epochs

    STUDY = "seed = 0\nepochs = 2\nbatch_size = 32\nn_train = 64\nn_test = 32\nhidden = 16,8\n"

    @pytest.mark.parametrize(
        "kinds, windows, loaded",
        [
            (["low_pass", "high_pass"], [8, 16], False),
            (["high_pass", "low_pass"], [8, 16], False),
            (["low_pass", "high_pass"], [16, 16], False),
            (["high_pass", "low_pass"], [16, 16], False),
            (["low_pass", "high_pass"], [8, 16], True),
            (["high_pass", "low_pass"], [8, 16], True),
        ],
    )
    def test_matches_eagerly_filtered_variants(self, kinds, windows, loaded, tmp_path, monkeypatch):
        cfg = parse_config(self.STUDY)
        if loaded:
            bench.save_generated_dataset(cfg, tmp_path / "dd")
            cfg = override(cfg, {"data_dir": tmp_path / "dd"})
        base = bench.get_dataset(cfg)
        assert base.images[0].dtype == np.float32
        before = [stack.copy() for stack in base.images]
        # The reference: every variant filtered on its own, then trained as
        # the raw control of a study of its own, all before any training.
        eager = {}
        for kind in kinds:
            for n in windows:
                ds = filter_dataset(base, n)
                if kind == "high_pass":
                    ds = replace(ds, images=[high_pass(b, l) for b, l in zip(base.images, ds.images)])
                eager[kind, n] = ds
        eager["raw", 0] = base
        expected = {name: [] for name in ("curves.csv", "summary.csv")}
        for kind, n in [("raw", 0)] + [(kind, n) for kind in kinds for n in windows]:
            with monkeypatch.context() as patch:
                patch.setattr(bench, "get_dataset", lambda cfg: eager[kind, n])
                filter_study(cfg, [], [], tmp_path / "eager")
            for name, lines in expected.items():
                header, *rows = (tmp_path / "eager" / name).read_text().splitlines()
                assert all(row.startswith("raw,0,") for row in rows)
                lines.extend(f"{kind},{n},{row[len('raw,0,'):]}" for row in rows)
        monkeypatch.setattr(bench, "get_dataset", lambda cfg: base)
        filter_study(cfg, windows, kinds, tmp_path / "lazy")
        for name, lines in expected.items():
            assert (tmp_path / "lazy" / name).read_text().splitlines()[1:] == lines
        for stack, copy in zip(base.images, before):
            assert stack.tobytes() == copy.tobytes()

    @pytest.mark.parametrize("kinds", [["low_pass", "high_pass"], ["high_pass", "low_pass"]])
    def test_filters_each_window_once(self, kinds, tmp_path, monkeypatch):
        calls = []
        original = bench.fft_filter
        monkeypatch.setattr(bench, "fft_filter", lambda x, n: calls.append(n) or original(x, n))
        cfg = parse_config(self.STUDY.replace("epochs = 2", "epochs = 1"))
        filter_study(cfg, [8, 16, 16], kinds, tmp_path / "fs")
        assert sorted(calls) == [8] * 3 + [16] * 3

    @pytest.mark.parametrize(
        "kinds, windows",
        [
            (["low_pass", "high_pass"], [8, 16]),
            (["high_pass", "low_pass"], [8, 16]),
            (["low_pass", "high_pass"], [16, 16]),
        ],
    )
    def test_high_pass_reuses_its_low_pass_arrays(self, kinds, windows, tmp_path, monkeypatch):
        # Per training after the raw control: the earlier variants whose
        # arrays are still alive, and whether it trains on the arrays of the
        # variant just before it.
        trained, seen = [], []
        original = bench._train_curves

        def spy(cfg, ds):
            alive = [j for j, refs in enumerate(trained[1:], start=1) if refs[0]() is not None]
            same = bool(trained) and all(ref() is a for ref, a in zip(trained[-1], ds.images))
            seen.append((alive, same))
            trained.append([weakref.ref(a) for a in ds.images])
            return original(cfg, ds)

        monkeypatch.setattr(bench, "_train_curves", spy)
        cfg = parse_config(self.STUDY.replace("epochs = 2", "epochs = 1"))
        filter_study(cfg, windows, kinds, tmp_path / "fs")
        # Raw, then per distinct window its low pass and, in the same
        # arrays, its high pass; no other filtered variant is held.
        per_window = [([], False), ([], False), ([1], True)]
        expected = per_window if windows == [16, 16] else per_window + [([], False), ([3], True)]
        assert seen == expected
