import dataclasses
import math

import numpy as np
import pytest
from runs import preset_run

from freqbal import bench, intervention, preference, tinynet
from freqbal.allocation import AllocationParams, allocate, relative_ratio, weight
from freqbal.errors import NumericError
from freqbal.intervention import (
    TrainConfig,
    TrainTrace,
    _first_bad_branch,
    train,
    warmup_iterations,
    weighted_loss,
)
from freqbal.preference import sample_preference
from freqbal.seeds import stream_rng, stream_seed
from freqbal.synthdata import generate, imbalanced_specs, load_dataset, save_generated
from freqbal.tinynet import (
    NetConfig,
    backward,
    cross_entropy,
    encoder_grad_norms,
    forward,
    init_network,
    sgd_step,
)

SMALL = dict(n_train=96, n_test=32, seed=21)


def small_dataset(seed=21):
    return generate(imbalanced_specs(), n_train=96, n_test=32, seed=seed)


def params_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[n], b[n]) for n in a)


@pytest.fixture
def pin_k(monkeypatch):
    """pin_k(*k) makes every step's K equal k; allocate still runs."""

    def pin(*k):
        def pinned(*args):
            mw = allocate(*args)
            mw.k = np.array(k, dtype=np.float64)
            return mw

        monkeypatch.setattr(intervention, "allocate", pinned)

    return pin


class TestWeightedLoss:
    def test_unit_weights_with_aux_equal_main(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        aux = [logits.copy(), logits.copy()]
        total, _ = weighted_loss(logits, aux, labels, [1.0, 1.0])
        assert total == pytest.approx(3 * cross_entropy(logits, labels), rel=1e-12)

    def test_zero_weights_leave_main_only(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        aux = [rng.normal(size=(5, 3)), rng.normal(size=(5, 3))]
        total, _ = weighted_loss(logits, aux, labels, [0.0, 0.0])
        assert total == cross_entropy(logits, labels)

    def test_hand_computed_sum(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        aux = [rng.normal(size=(4, 3)), rng.normal(size=(4, 3))]
        k = [1.2, 0.8]
        expected = (
            cross_entropy(logits, labels)
            + 1.2 * cross_entropy(aux[0], labels)
            + 0.8 * cross_entropy(aux[1], labels)
        )
        assert weighted_loss(logits, aux, labels, k)[0] == pytest.approx(expected, rel=1e-12)

    def test_missing_aux_rejected(self):
        with pytest.raises(ValueError):
            weighted_loss(np.zeros((2, 3)), None, np.array([0, 1]), [1.0])


class TestModeLattice:
    def test_none_equals_gradient_with_unit_override(self):
        ds = small_dataset()
        unit = AllocationParams(alpha=1.0, beta=0.0)
        base = dict(epochs=2, eta=0.2, batch_size=32, seed=3, allocation=unit)
        _, p_none, t_none = train(TrainConfig(mode="none", **base), ds)
        _, p_grad, t_grad = train(TrainConfig(mode="gradient", **base), ds)
        assert params_equal(p_none, p_grad)
        assert t_none.rows == t_grad.rows

    def test_zero_weight_freezes_encoder_through_training(self, pin_k):
        ds = small_dataset()
        pin_k(1.0, 1.0, 0.0)
        cfg = TrainConfig(mode="gradient", epochs=2, eta=0.2, batch_size=32, seed=4)
        net_cfg, params, _ = train(cfg, ds)
        from freqbal.tinynet import init_network

        init = init_network(net_cfg)
        for l in range(len(cfg.hidden)):
            assert np.array_equal(params[f"enc2.w{l}"], init[f"enc2.w{l}"])
        assert not np.array_equal(params["enc0.w0"], init["enc0.w0"])

    def test_loss_mode_changes_only_loss_path(self):
        # Same seeds: none and loss share data, shuffle and smoothing, so the
        # preference columns coincide while the parameter paths diverge.
        ds = small_dataset()
        base = dict(epochs=1, eta=0.2, batch_size=32, seed=5)
        _, p_none, t_none = train(TrainConfig(mode="none", **base), ds)
        _, p_loss, t_loss = train(TrainConfig(mode="loss", **base), ds)
        for col in ("frm_raw_m0", "frm_smooth_m1", "t_m2", "k_m0"):
            assert np.array_equal(t_none.column(col), t_loss.column(col))
        assert not params_equal(p_none, p_loss)

    def test_determinism(self):
        ds = small_dataset()
        cfg = TrainConfig(mode="hybrid", epochs=2, eta=0.2, batch_size=32, seed=6)
        _, p1, t1 = train(cfg, ds)
        _, p2, t2 = train(cfg, ds)
        assert params_equal(p1, p2)
        assert t1.rows == t2.rows


class TestLoop:
    def test_classifier_update_unscaled(self):
        ds = small_dataset()
        cfg = TrainConfig(
            mode="gradient", epochs=1, eta=0.25, batch_size=96, seed=7,
            allocation=AllocationParams(alpha=0.0, beta=0.0),
        )
        net_cfg, params, trace = train(cfg, ds)
        from freqbal.seeds import stream_rng
        from freqbal.tinynet import backward, init_network

        init = init_network(net_cfg)
        order = stream_rng(cfg.seed, "shuffle").permutation(96)
        tr_in, tr_lab = ds.train_split()
        xb = [img[order] for img in tr_in]
        grads, *_ = backward(net_cfg, init, xb, tr_lab[order])
        assert np.array_equal(params["clf.w"], init["clf.w"] - 0.25 * grads["clf.w"])
        assert np.array_equal(params["enc0.w0"], init["enc0.w0"])

    def test_warmup_forces_unit_weights(self):
        ds = small_dataset()
        cfg = TrainConfig(mode="hybrid", epochs=2, eta=0.2, batch_size=16, warmup_frac=0.25, seed=8)
        _, _, trace = train(cfg, ds)
        warm = warmup_iterations(cfg, 96)
        assert warm == 3
        for i in range(3):
            k = trace.column("k_m0")
            assert k[i] == 1.0
        assert trace.column("k_m0")[warm] != 1.0

    def test_trace_schema_and_length(self):
        ds = small_dataset()
        cfg = TrainConfig(mode="hybrid", epochs=2, eta=0.2, batch_size=32, seed=9)
        _, _, trace = train(cfg, ds)
        assert len(trace) == 2 * 3
        cols = TrainTrace.columns(3)
        assert cols[:2] == ["iteration", "total_loss"]
        assert len(trace.rows[0]) == len(cols)
        assert math.isfinite(trace.column("total_loss")[-1])

    def test_aux_losses_nan_without_heads(self):
        ds = small_dataset()
        cfg = TrainConfig(mode="none", epochs=1, eta=0.2, batch_size=32, seed=10)
        _, _, trace = train(cfg, ds)
        assert math.isnan(trace.column("aux_loss_m0")[0])

    def test_nan_loss_aborts_with_trace(self):
        ds = small_dataset()
        cfg = TrainConfig(mode="none", epochs=3, eta=1e12, batch_size=32, seed=11)
        with pytest.raises(NumericError) as err:
            train(cfg, ds)
        assert err.value.trace is not None
        assert len(err.value.trace) >= 1
        # In mode none K depends only on the batches, so a stable run with
        # the same seed gives the K of the failing iteration.
        failed_at = len(err.value.trace)
        _, _, stable = train(dataclasses.replace(cfg, eta=0.2), ds)
        k = [float(stable.column(f"k_m{i}")[failed_at]) for i in range(3)]
        last = err.value.trace.rows[-1][1]
        message = str(err.value)
        assert message.startswith("non-finite ")
        assert f"at iteration {failed_at} " in message
        assert f"k={k}" in message
        assert f"last finite total_loss={last!r}" in message

    def test_non_finite_aux_logits_are_numeric_error(self, pin_k):
        # A huge aux weight blows up only the aux path at first: the main
        # logits stay finite while aux0's overflow.
        ds = small_dataset()
        pin_k(1e150, 1.0, 1.0)
        cfg = TrainConfig(mode="loss", epochs=2, batch_size=32, seed=3)
        with pytest.raises(NumericError) as err:
            train(cfg, ds)
        assert len(err.value.trace) == 1
        message = str(err.value)
        assert message.startswith("non-finite logits at iteration 1 (k=[1e+150, 1.0, 1.0]")
        assert message.endswith("; first non-finite branch: modality 0")

    def test_non_finite_branch_named_without_aux_heads(self, pin_k):
        # Gradient mode has no aux heads: branch 1's K-scaled update makes
        # its features, and so every logit, overflow at the next step.
        ds = small_dataset()
        pin_k(1.0, 1e200, 1.0)
        cfg = TrainConfig(mode="gradient", epochs=2, batch_size=32, seed=3)
        with pytest.raises(NumericError) as err:
            train(cfg, ds)
        message = str(err.value)
        assert message.startswith("non-finite logits at iteration 1 (k=[1.0, 1e+200, 1.0]")
        assert message.endswith("; first non-finite branch: modality 1")

    def test_overflow_only_in_the_sum_names_no_branch(self):
        # Each branch alone gives a logit of 1e308; only their sum overflows.
        net_cfg = NetConfig(input_dims=(1, 1), hidden=(1,), n_classes=2)
        params = init_network(net_cfg)
        for i in range(2):
            params[f"enc{i}.w0"] = np.ones((1, 1))
        params["clf.w"] = np.array([[1e308, 0.0], [1e308, 0.0]])
        xb = [np.ones((1, 1)), np.ones((1, 1))]
        with np.errstate(over="ignore"):
            [(logits, _)] = forward(net_cfg, params, xb)
        assert not np.all(np.isfinite(logits))
        assert _first_bad_branch(net_cfg, params, xb, None) == "no single branch is non-finite"

    @pytest.mark.parametrize("bad, named", [((1, 2), 1), ((2,), 2), ((0, 1, 2), 0)])
    def test_first_bad_branch_from_one_encoder_pass(self, bad, named, monkeypatch):
        # A bad branch's features are about 1e200, which the 1e200
        # classifier weights overflow; a good branch's stay finite.
        net_cfg = NetConfig(input_dims=(2, 2, 2), hidden=(2,), n_classes=2)
        params = init_network(net_cfg)
        for i in bad:
            params[f"enc{i}.w0"] = np.full((2, 2), 1e200)
        params["clf.w"] = np.full((6, 2), 1e200)
        xb = [np.ones((3, 2))] * 3
        encodes = []
        encode = tinynet._encode

        def counting_encode(*args):
            encodes.append(list(args[3]))
            return encode(*args)

        monkeypatch.setattr(tinynet, "_encode", counting_encode)
        with np.errstate(over="ignore", invalid="ignore"):
            named_branch = _first_bad_branch(net_cfg, params, xb, None)
        assert named_branch == f"first non-finite branch: modality {named}"
        assert encodes == [[True, True, True]]

    def test_epoch_callback_sees_every_epoch(self):
        ds = small_dataset()
        seen = []
        cfg = TrainConfig(mode="none", epochs=3, eta=0.2, batch_size=32, seed=12)
        train(cfg, ds, on_epoch_end=lambda epoch, net_cfg, params: seen.append(epoch))
        assert seen == [0, 1, 2]

    def test_weighted_equals_plain_for_unit_band_blend(self):
        # mp_weighted with full weight on the low band is exactly mp_low,
        # so the two metrics must produce bit-identical runs.
        ds = small_dataset()
        base = dict(mode="hybrid", epochs=2, eta=0.2, batch_size=32, seed=13)
        _, p_low, t_low = train(TrainConfig(metric="mp_low", **base), ds)
        _, p_w, t_w = train(TrainConfig(metric="mp_weighted", omega_band=1.0, **base), ds)
        assert params_equal(p_low, p_w)
        assert t_low.rows == t_w.rows

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(mode="both")


def unfused_train(cfg, dataset):
    """The loop as separate passes: K from the scalar smoothing recurrence,
    forward for the loss, backward for the gradients, then sgd_step."""
    m = dataset.n_modalities
    images, labels = dataset.train_split()
    n = len(labels)
    h, w = dataset.dims
    net_cfg = NetConfig(
        input_dims=(h * w,) * m, hidden=cfg.hidden, n_classes=dataset.n_classes,
        aux_heads=cfg.uses_aux, seed=stream_seed(cfg.seed, "init"),
    )
    params = init_network(net_cfg)
    omega = cfg.allocation.omega_bank
    smooth = None
    shuffle_rng = stream_rng(cfg.seed, "shuffle")
    warmup = warmup_iterations(cfg, n)
    rows = []
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = [img[idx] for img in images]
            yb = labels[idx]
            raw = [
                sample_preference(x, cfg.spectral, cfg.metric, cfg.omega_band).mean() for x in xb
            ]
            smooth = (
                [float(r) for r in raw] if smooth is None
                else [omega * v + (1.0 - omega) * float(r) for v, r in zip(smooth, raw)]
            )
            t = relative_ratio(smooth, cfg.spectral.sigma)
            k = np.ones(m) if len(rows) < warmup else weight(t, cfg.allocation)
            [(logits, aux)] = forward(net_cfg, params, xb)
            loss = cross_entropy(logits, yb)
            aux_losses = [math.nan] * m
            if cfg.uses_aux:
                aux_losses = [cross_entropy(a, yb) for a in aux]
                for k_i, loss_i in zip(k, aux_losses):
                    loss += float(k_i) * loss_i
            grads = backward(net_cfg, params, xb, yb, aux_weights=(k if cfg.uses_aux else None))[0]
            gnorms = encoder_grad_norms(net_cfg, grads)
            params = sgd_step(net_cfg, params, grads, cfg.eta, k if cfg.scales_gradients else None)
            row = [len(rows), loss]
            for block in (aux_losses, raw, smooth, t, k, gnorms):
                row.extend(float(v) for v in block)
            rows.append(row)
    return params, rows


class TestFusedStep:
    def test_one_encoder_pass_per_iteration(self, monkeypatch):
        ds = generate(imbalanced_specs(), n_test=32, seed=14)
        calls = []
        encode = tinynet._encode

        def counting_encode(*args):
            calls.append(1)
            return encode(*args)

        monkeypatch.setattr(tinynet, "_encode", counting_encode)
        _, _, trace = train(TrainConfig(mode="hybrid", seed=14), ds)
        assert len(trace) == 128
        assert len(calls) == len(trace)

    # 200 samples leave a last batch of 8 rows in every epoch; the full-batch
    # cases are named by their mode alone.
    @pytest.mark.parametrize(
        "mode, n_train",
        [pytest.param(mode, n, id=mode if n == 256 else f"{mode}-{n}")
         for n in (256, 200) for mode in ("none", "loss", "gradient", "hybrid")],
    )
    def test_matches_unfused_reference(self, mode, n_train):
        ds = generate(imbalanced_specs(), n_train=n_train, n_test=32, seed=15)
        # A history weight of 0.3 rounds in every blend, where 0.5 need not.
        cfg = TrainConfig(
            mode=mode, warmup_frac=0.2, allocation=AllocationParams(omega_bank=0.3), seed=15
        )
        assert warmup_iterations(cfg, n_train) == 3
        _, params, trace = train(cfg, ds)
        ref_params, ref_rows = unfused_train(cfg, ds)
        assert list(params) == list(ref_params)
        for name in params:
            assert params[name].tobytes() == ref_params[name].tobytes(), name
        assert len(trace.rows) == len(ref_rows) == 16
        for row, ref in zip(trace.rows, ref_rows):
            assert np.array(row).tobytes() == np.array(ref).tobytes()


class TestScoreTable:
    def test_training_split_scored_once_per_modality(self, monkeypatch):
        ds = generate(imbalanced_specs(), n_test=32, seed=16)
        planes = []
        compute = preference.compute_maps_batch

        def counting_compute(imgs, cfg):
            planes.append(len(imgs))
            return compute(imgs, cfg)

        monkeypatch.setattr(preference, "compute_maps_batch", counting_compute)
        _, _, trace = train(TrainConfig(seed=16), ds)
        assert len(trace) == 128
        assert planes == [ds.n_train] * ds.n_modalities

    def test_non_finite_sample_fails_before_any_step(self):
        ds = small_dataset()
        ds.images[2][40, 3, 5] = np.nan
        with pytest.raises(NumericError, match="modality 2 at training sample 40$") as err:
            train(TrainConfig(metric="mp_sum", epochs=1, seed=3), ds)
        assert "mp_sum" in str(err.value)
        assert err.value.trace is None

    def test_test_split_pixels_are_not_scored(self):
        ds = small_dataset()
        ds.images[0][ds.n_train + 1, 0, 0] = np.inf
        _, _, trace = train(TrainConfig(epochs=1, seed=3), ds)
        assert np.all(np.isfinite(trace.column("frm_raw_m0")))


class TestLoadedData:
    def test_reloaded_dataset_trains_like_float32_rounded_generated(self, tmp_path):
        # A loaded dataset stays float32 and is widened where it is used; the
        # training split of 600 spans three scoring blocks.
        args = dict(n_train=600, n_test=40, seed=24)
        ds = generate(imbalanced_specs(), **args)
        save_generated(tmp_path / "ds", imbalanced_specs(), **args)
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.images[0].dtype == np.float32
        rounded = dataclasses.replace(
            ds, images=[img.astype(np.float32).astype(np.float64) for img in ds.images]
        )
        cfg = TrainConfig(mode="hybrid", epochs=1, seed=6)
        _, params_a, trace_a = train(cfg, loaded)
        _, params_b, trace_b = train(cfg, rounded)
        bench.write_trace_csv(tmp_path / "a.csv", trace_a)
        bench.write_trace_csv(tmp_path / "b.csv", trace_b)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert params_equal(params_a, params_b)


class TestDirectional:
    def test_hybrid_helps_weak_modality_single_seed(self):
        weak = (False, True, False)
        assert preset_run("hybrid", 0).accs[weak] > preset_run("none", 0).accs[weak]
