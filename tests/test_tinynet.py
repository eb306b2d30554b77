import numpy as np
import pytest
from memtrace import traced_peak

from freqbal import tensorio
from freqbal.bench import mask_order
from freqbal.intervention import weighted_loss
from freqbal.tinynet import (
    NetConfig,
    backward,
    cross_entropy,
    encoder_grad_norms,
    evaluate,
    forward,
    init_network,
    load_checkpoint,
    onehot,
    param_layout,
    save_checkpoint,
    sgd_step,
    softmax,
)


def finite_difference(cfg, params, inputs, labels, aux_weights=None, eps=1e-5):
    def loss_fn(p):
        [(logits, aux)] = forward(cfg, p, inputs)
        if aux_weights is not None:
            return weighted_loss(logits, aux, labels, aux_weights)[0]
        return cross_entropy(logits, labels)

    fd = {}
    for name, value in params.items():
        grad = np.zeros_like(value)
        it = np.nditer(value, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            probe = {n: v.copy() for n, v in params.items()}
            probe[name][idx] += eps
            up = loss_fn(probe)
            probe[name][idx] -= 2 * eps
            down = loss_fn(probe)
            grad[idx] = (up - down) / (2 * eps)
        fd[name] = grad
    return fd


def max_rel_err(analytic, numeric):
    worst = 0.0
    for name in analytic:
        diff = np.abs(analytic[name] - numeric[name])
        rel = diff / np.maximum(np.abs(numeric[name]), 1e-6)
        worst = max(worst, float(rel.max()))
    return worst


def min_abs_preactivation(cfg, params, inputs):
    # Central differences are invalid within eps of a ReLU kink; callers
    # only trust the oracle when every pre-activation clears this margin.
    smallest = np.inf
    for i, x in enumerate(inputs):
        h = np.asarray(x, float).reshape(len(x), -1)
        for l in range(len(cfg.hidden)):
            z = h @ params[f"enc{i}.w{l}"] + params[f"enc{i}.b{l}"]
            smallest = min(smallest, float(np.abs(z).min()))
            h = np.maximum(z, 0.0)
    return smallest


def enc_keys(i, layers=2):
    return [f"enc{i}.{t}{l}" for l in range(layers) for t in "wb"]


def aux_keys(i):
    return [f"aux{i}.w", f"aux{i}.b"]


CLF_KEYS = ["clf.w", "clf.b"]


def identity_encoder_params(cfg, rng):
    # ReLU encoder that passes nonnegative inputs through unchanged.
    d = cfg.input_dims[0]
    params = init_network(cfg)
    params["enc0.w0"] = np.eye(d)
    params["enc0.b0"] = np.zeros(d)
    return params


class TestInit:
    def test_deterministic_per_seed(self):
        cfg = NetConfig(input_dims=(10, 6), hidden=(8, 4), n_classes=3, seed=5)
        a, b = init_network(cfg), init_network(cfg)
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_seeds_differ(self):
        cfg = NetConfig(input_dims=(10,), hidden=(8,), n_classes=3, seed=1)
        other = NetConfig(input_dims=(10,), hidden=(8,), n_classes=3, seed=2)
        assert not np.array_equal(init_network(cfg)["enc0.w0"], init_network(other)["enc0.w0"])

    def test_glorot_bound(self):
        cfg = NetConfig(input_dims=(20, 12), hidden=(16, 8), n_classes=5, aux_heads=True, seed=3)
        params = init_network(cfg)
        for name, value in params.items():
            if name.endswith((".b0", ".b1", ".b")):
                assert np.all(value == 0.0)
            else:
                fan_in, fan_out = value.shape
                bound = np.sqrt(6.0 / (fan_in + fan_out))
                assert np.abs(value).max() <= bound

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            NetConfig(input_dims=(10,), hidden=(0,), n_classes=2)


class TestForward:
    def test_identity_encoder_single_modality(self):
        rng = np.random.default_rng(0)
        cfg = NetConfig(input_dims=(6,), hidden=(6,), n_classes=3, seed=0)
        params = identity_encoder_params(cfg, rng)
        x = rng.random((5, 6))  # nonnegative so ReLU is inactive
        [(logits, aux)] = forward(cfg, params, [x])
        assert aux is None
        assert np.array_equal(logits, x @ params["clf.w"] + params["clf.b"])

    def test_masked_modality_equals_zeroed_partition(self):
        rng = np.random.default_rng(1)
        cfg = NetConfig(input_dims=(5, 4), hidden=(6, 3), n_classes=3, seed=1)
        params = init_network(cfg)
        inputs = [rng.normal(size=(4, 5)), rng.normal(size=(4, 4))]
        [(masked, _)] = forward(cfg, params, inputs, [[True, False]])
        zeroed = {n: v.copy() for n, v in params.items()}
        zeroed["clf.w"][cfg.feat_dim :, :] = 0.0
        [(unmasked, _)] = forward(cfg, zeroed, inputs)
        assert np.allclose(masked, unmasked, atol=1e-12)

    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(2)
        cfg = NetConfig(input_dims=(7, 5), hidden=(6, 4), n_classes=4, aux_heads=True, seed=2)
        params = init_network(cfg)
        inputs = [rng.normal(size=(6, 7)), rng.normal(size=(6, 5))]
        [(logits, aux)] = forward(cfg, params, inputs)

        feats = []
        for i, x in enumerate(inputs):
            h = x
            for l in range(2):
                h = np.maximum(h @ params[f"enc{i}.w{l}"] + params[f"enc{i}.b{l}"], 0.0)
            feats.append(h)
        expected = np.hstack(feats) @ params["clf.w"] + params["clf.b"]
        assert np.abs(logits - expected).max() < 1e-9
        for i in range(2):
            exp_aux = feats[i] @ params[f"aux{i}.w"] + params[f"aux{i}.b"]
            assert np.abs(aux[i] - exp_aux).max() < 1e-9

    def test_absent_input_may_be_none(self):
        rng = np.random.default_rng(4)
        cfg = NetConfig(input_dims=(5, 4), hidden=(6, 3), n_classes=3, aux_heads=True, seed=4)
        params = init_network(cfg)
        inputs = [rng.normal(size=(4, 5)), rng.normal(size=(4, 4))]
        for mask in ([True, False], [False, True]):
            [(ref, ref_aux)] = forward(cfg, params, inputs, [mask])
            sparse = [x if present else None for x, present in zip(inputs, mask)]
            [(logits, aux)] = forward(cfg, params, sparse, [mask])
            assert logits.tobytes() == ref.tobytes()
            for a, r in zip(aux, ref_aux):
                assert a.tobytes() == r.tobytes()

    def test_present_input_none_rejected(self):
        cfg = NetConfig(input_dims=(5, 4), hidden=(3,), n_classes=2)
        params = init_network(cfg)
        for masks in (None, [[False, True]], [[True, False], [False, True]]):
            with pytest.raises(ValueError, match="modality 1 is present"):
                forward(cfg, params, [np.zeros((2, 5)), None], masks)
        with pytest.raises(ValueError, match="modality 1 is present"):
            backward(cfg, params, [np.zeros((2, 5)), None], np.array([0, 1]))

    def test_all_absent_rejected(self):
        cfg = NetConfig(input_dims=(4,), hidden=(3,), n_classes=2)
        params = init_network(cfg)
        with pytest.raises(ValueError):
            forward(cfg, params, [np.zeros((2, 4))], [[False]])

    def test_flattens_image_planes(self):
        rng = np.random.default_rng(3)
        cfg = NetConfig(input_dims=(16,), hidden=(4,), n_classes=2, seed=3)
        params = init_network(cfg)
        imgs = rng.random((3, 4, 4))
        [(a, _)] = forward(cfg, params, [imgs])
        [(b, _)] = forward(cfg, params, [imgs.reshape(3, 16)])
        assert np.array_equal(a, b)


class TestMaskList:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("aux_heads", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_single_mask_calls_bitwise(self, m, aux_heads, dtype):
        rng = np.random.default_rng(30 + m)
        cfg = NetConfig(input_dims=(12, 9, 16)[:m], hidden=(8, 5), n_classes=4, aux_heads=aux_heads, seed=m)
        params = init_network(cfg)
        inputs = [rng.normal(size=(50, d)).astype(dtype) for d in cfg.input_dims]
        labels = rng.integers(0, 4, size=50)
        masks = mask_order(m)
        results = forward(cfg, params, inputs, masks)
        accs = evaluate(cfg, params, inputs, labels, masks)
        assert len(results) == len(accs) == len(masks)
        for mask, (logits, aux), acc in zip(masks, results, accs):
            # The reference never sees an absent modality's input.
            sparse = [x if present else None for x, present in zip(inputs, mask)]
            [(ref, ref_aux)] = forward(cfg, params, sparse, [mask])
            assert logits.dtype == np.float64
            assert np.array_equal(logits, ref) and logits.tobytes() == ref.tobytes()
            if aux_heads:
                assert len(aux) == m
                for a, r in zip(aux, ref_aux):
                    assert a.tobytes() == r.tobytes()
            else:
                assert aux is None and ref_aux is None
            assert acc == evaluate(cfg, params, sparse, labels, [mask])[0]
        [(full, _)] = forward(cfg, params, inputs)
        assert full.tobytes() == results[-1][0].tobytes()
        assert evaluate(cfg, params, inputs, labels) == accs[-1:]

    def test_encodes_each_needed_branch_once(self, monkeypatch):
        from freqbal import tinynet

        seen = []
        encode = tinynet._encode

        def recording_encode(cfg, params, inputs, mask):
            seen.append(list(mask))
            return encode(cfg, params, inputs, mask)

        monkeypatch.setattr(tinynet, "_encode", recording_encode)
        cfg = NetConfig(input_dims=(4, 3, 5), hidden=(3,), n_classes=2)
        params = init_network(cfg)
        inputs = [np.ones((2, 4)), None, np.ones((2, 5))]
        forward(cfg, params, inputs, [[True, False, False], [False, False, True], [True, False, True]])
        evaluate(cfg, params, inputs, np.array([0, 1]), [[False, False, True]])
        assert seen == [[True, False, True], [False, False, True]]

    def test_peak_memory_holds_one_widened_branch(self):
        # Inference keeps no activations: each branch drops its float64
        # copy of the input once its first layer is formed.
        cfg = NetConfig(input_dims=(32 * 32,) * 3, aux_heads=True, seed=7)
        params = init_network(cfg)
        rng = np.random.default_rng(7)
        inputs = [rng.normal(size=(500, 32, 32)).astype(np.float32) for _ in range(3)]
        masks = mask_order(3)
        assert len(masks) == 7
        _, peak = traced_peak(lambda: forward(cfg, params, inputs, masks))
        widened_branch = np.dtype(np.float64).itemsize * inputs[0].size
        assert peak < 1.5 * widened_branch

    @pytest.mark.parametrize("masks", [[], [True, False], [[True, True], [True]], [[False, False]]])
    def test_bad_mask_list_rejected(self, masks):
        cfg = NetConfig(input_dims=(4, 3), hidden=(3,), n_classes=2)
        params = init_network(cfg)
        with pytest.raises(ValueError):
            forward(cfg, params, [np.zeros((2, 4)), np.zeros((2, 3))], masks)


class TestCrossEntropy:
    def test_uniform_binary(self):
        logits = np.zeros((4, 2))
        assert cross_entropy(logits, np.array([0, 1, 0, 1])) == pytest.approx(
            np.log(2.0), abs=1e-12
        )

    def test_confident_correct(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert cross_entropy(logits, np.array([0, 1])) < 1e-10

    def test_high_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 50
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(5, 4)) * 3
        labels = rng.integers(0, 4, size=5)
        total = mpmath.mpf(0)
        for j in range(5):
            row = [mpmath.mpf(v) for v in logits[j]]
            denom = mpmath.fsum(mpmath.e**v for v in row)
            total += -mpmath.log((mpmath.e ** row[labels[j]]) / denom)
        expected = float(total / 5)
        assert cross_entropy(logits, labels) == pytest.approx(expected, rel=1e-14)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


class TestBackward:
    def test_perfect_fit_has_tiny_gradients(self):
        rng = np.random.default_rng(5)
        cfg = NetConfig(input_dims=(4,), hidden=(4,), n_classes=2, seed=5)
        params = identity_encoder_params(cfg, rng)
        params["clf.w"] = np.array(
            [[1e4, -1e4], [-1e4, 1e4], [0.0, 0.0], [0.0, 0.0]]
        )
        params["clf.b"] = np.zeros(2)
        x = np.array([[1.0, 0, 0, 0], [0.0, 1, 0, 0]])
        labels = np.array([0, 1])  # both samples confidently correct
        grads, error, *_ = backward(cfg, params, [x], labels)
        assert np.abs(error).max() < 1e-4
        assert max(np.abs(g).max() for g in grads.values()) < 1e-4

    def test_classifier_gradient_closed_form(self):
        rng = np.random.default_rng(6)
        cfg = NetConfig(input_dims=(5,), hidden=(5,), n_classes=3, seed=6)
        params = identity_encoder_params(cfg, rng)
        x = rng.random((8, 5))
        labels = rng.integers(0, 3, size=8)
        grads, error, *_ = backward(cfg, params, [x], labels)
        logits = x @ params["clf.w"] + params["clf.b"]
        expected_error = softmax(logits) - onehot(labels, 3)
        assert np.abs(error - expected_error).max() < 1e-12
        assert np.abs(grads["clf.w"] - x.T @ expected_error / 8).max() < 1e-12

    def test_error_override_zero_kills_all_gradients(self):
        rng = np.random.default_rng(7)
        cfg = NetConfig(input_dims=(6, 4), hidden=(5, 3), n_classes=3, seed=7)
        params = init_network(cfg)
        inputs = [rng.normal(size=(4, 6)), rng.normal(size=(4, 4))]
        labels = rng.integers(0, 3, size=4)
        grads, *_ = backward(cfg, params, inputs, labels, error_override=np.zeros((4, 3)))
        for name, g in grads.items():
            assert np.all(g == 0.0), name

    @pytest.mark.parametrize("seed", [0, 1, 3, 4])
    def test_finite_difference_agreement(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = int(rng.integers(1, 4))
        cfg = NetConfig(
            input_dims=tuple(int(d) for d in rng.integers(4, 8, size=m)),
            hidden=tuple(int(d) for d in rng.integers(4, 7, size=int(rng.integers(1, 3)))),
            n_classes=int(rng.integers(2, 5)),
            aux_heads=bool(seed % 2),
            seed=seed,
        )
        params = init_network(cfg)
        inputs = [rng.normal(size=(5, d)) for d in cfg.input_dims]
        labels = rng.integers(0, cfg.n_classes, size=5)
        assert min_abs_preactivation(cfg, params, inputs) > 1e-3
        aux_w = list(rng.uniform(0.5, 1.5, size=m)) if cfg.aux_heads else None
        grads, *_ = backward(cfg, params, inputs, labels, aux_weights=aux_w)
        fd = finite_difference(cfg, params, inputs, labels, aux_weights=aux_w)
        assert max_rel_err(grads, fd) < 1e-4

    def test_masked_modality_gets_no_gradients(self):
        rng = np.random.default_rng(8)
        cfg = NetConfig(input_dims=(5, 4), hidden=(4,), n_classes=2, seed=8)
        params = init_network(cfg)
        params["enc1.b0"][1] = -0.0  # a zero step must keep the sign bit too
        inputs = [rng.normal(size=(3, 5)), rng.normal(size=(3, 4))]
        grads, *_ = backward(cfg, params, inputs, np.array([0, 1, 0]), mask=[True, False])
        assert not any(name.startswith("enc1.") for name in grads)
        assert encoder_grad_norms(cfg, grads)[1] == 0.0
        dense = {name: grads.get(name, np.zeros_like(value)) for name, value in params.items()}
        for weights in (None, [1.4, 0.6]):
            out = sgd_step(cfg, params, grads, 0.1, weights)
            ref = sgd_step(cfg, params, dense, 0.1, weights)
            assert list(out) == list(params)
            for name in ("enc1.w0", "enc1.b0"):
                assert out[name] is params[name]
            for name in params:
                assert out[name].tobytes() == ref[name].tobytes(), name

    @pytest.mark.parametrize(
        "aux_heads, mask, aux_w, keys",
        [
            (True, None, [1.3, 0.6, 0.9],
             enc_keys(0) + enc_keys(1) + enc_keys(2) + CLF_KEYS + aux_keys(0) + aux_keys(1) + aux_keys(2)),
            (True, [True, False, True], [1.3, 0.6, 0.9],
             enc_keys(0) + enc_keys(2) + CLF_KEYS + aux_keys(0) + aux_keys(2)),
            (True, [False, True, False], None, enc_keys(1) + CLF_KEYS),
            (False, [True, True, False], None, enc_keys(0) + enc_keys(1) + CLF_KEYS),
        ],
        ids=["aux_full", "aux_partial", "aux_unweighted", "no_aux"],
    )
    def test_returned_logits_match_forward(self, aux_heads, mask, aux_w, keys):
        rng = np.random.default_rng(15)
        cfg = NetConfig(input_dims=(6, 5, 4), hidden=(5, 3), n_classes=3, aux_heads=aux_heads, seed=15)
        params = init_network(cfg)
        for name in params:
            params[name] = params[name] + rng.normal(scale=0.1, size=params[name].shape)
        inputs = [rng.normal(size=(7, d)) for d in cfg.input_dims]
        labels = rng.integers(0, 3, size=7)
        grads, error, logits, aux_logits = backward(
            cfg, params, inputs, labels, mask=mask, aux_weights=aux_w
        )
        [(ref_logits, ref_aux)] = forward(cfg, params, inputs, [mask])
        assert logits.tobytes() == ref_logits.tobytes()
        assert list(grads) == keys
        if aux_heads:
            assert len(aux_logits) == cfg.n_modalities
            for a, r in zip(aux_logits, ref_aux):
                assert a.tobytes() == r.tobytes()
        else:
            assert aux_logits is None and ref_aux is None
        assert np.array_equal(error, softmax(ref_logits) - onehot(labels, 3))

    def test_aux_weights_without_heads_rejected(self):
        cfg = NetConfig(input_dims=(4,), hidden=(3,), n_classes=2)
        params = init_network(cfg)
        with pytest.raises(ValueError):
            backward(cfg, params, [np.zeros((2, 4))], np.array([0, 1]), aux_weights=[1.0])


class TestSgdStep:
    def setup_method(self):
        self.rng = np.random.default_rng(9)
        self.cfg = NetConfig(input_dims=(5, 4), hidden=(4, 3), n_classes=3, aux_heads=True, seed=9)
        self.params = init_network(self.cfg)
        self.inputs = [self.rng.normal(size=(6, 5)), self.rng.normal(size=(6, 4))]
        self.labels = self.rng.integers(0, 3, size=6)
        self.grads, *_ = backward(
            self.cfg, self.params, self.inputs, self.labels, aux_weights=[1.0, 1.0]
        )

    def test_unit_weights_match_plain_sgd(self):
        a = sgd_step(self.cfg, self.params, self.grads, 0.1, weights=None)
        b = sgd_step(self.cfg, self.params, self.grads, 0.1, weights=[1.0, 1.0])
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_zero_weight_freezes_encoder(self):
        out = sgd_step(self.cfg, self.params, self.grads, 0.1, weights=[0.0, 1.0])
        assert np.array_equal(out["enc0.w0"], self.params["enc0.w0"])
        assert np.array_equal(out["aux0.w"], self.params["aux0.w"])
        assert not np.array_equal(out["enc1.w0"], self.params["enc1.w0"])

    def test_manual_update_equality(self):
        k = [1.4, 0.6]
        out = sgd_step(self.cfg, self.params, self.grads, 0.05, weights=k)
        for name, value in self.params.items():
            if name.startswith("clf."):
                expected = value - 0.05 * self.grads[name]
            else:
                i = int(name[3])
                expected = value - k[i] * (0.05 * self.grads[name])
            assert np.array_equal(out[name], expected), name

    def test_classifier_never_weighted(self):
        out = sgd_step(self.cfg, self.params, self.grads, 0.1, weights=[0.0, 0.0])
        assert np.array_equal(out["clf.w"], self.params["clf.w"] - 0.1 * self.grads["clf.w"])

    @pytest.mark.parametrize("weights", [None, [1.4, 0.6]])
    def test_inputs_unchanged(self, weights):
        params = {n: v.copy() for n, v in self.params.items()}
        grads = {n: v.copy() for n, v in self.grads.items()}
        out = sgd_step(self.cfg, self.params, self.grads, 0.1, weights=weights)
        for name in params:
            assert self.params[name].tobytes() == params[name].tobytes(), name
            assert self.grads[name].tobytes() == grads[name].tobytes(), name
            assert not np.shares_memory(out[name], self.params[name]), name
            assert not np.shares_memory(out[name], self.grads[name]), name

    def test_missing_grads_carry_params_over_unwritten(self):
        params = {n: v.copy() for n, v in self.params.items()}
        grads = {n: g for n, g in self.grads.items() if not n[3:].startswith("1.")}
        out = sgd_step(self.cfg, self.params, grads, 0.1, weights=[1.4, 0.6])
        assert list(out) == list(self.params)
        for name in params:
            assert self.params[name].tobytes() == params[name].tobytes(), name
            if name in grads:
                assert not np.shares_memory(out[name], self.params[name]), name
            else:
                assert out[name] is self.params[name], name

    def test_unknown_grad_name_rejected(self):
        bad = dict(self.grads)
        bad["enc2.w0"] = np.zeros((5, 4))
        with pytest.raises(ValueError, match="enc2.w0"):
            sgd_step(self.cfg, self.params, bad, 0.1)

    def test_shape_mismatch_rejected(self):
        bad = dict(self.grads)
        bad["clf.w"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            sgd_step(self.cfg, self.params, bad, 0.1)


class TestEvaluate:
    def test_separable_toy_task_reaches_one(self):
        rng = np.random.default_rng(10)
        cfg = NetConfig(input_dims=(2,), hidden=(8,), n_classes=2, seed=10)
        params = init_network(cfg)
        x = np.vstack([rng.normal(size=(20, 2)) + (3, 3), rng.normal(size=(20, 2)) - (3, 3)])
        y = np.array([0] * 20 + [1] * 20)
        for _ in range(200):
            grads, *_ = backward(cfg, params, [x], y)
            params = sgd_step(cfg, params, grads, 0.5)
        assert evaluate(cfg, params, [x], y) == [1.0]

    def test_constant_prediction_on_balanced_binary(self):
        cfg = NetConfig(input_dims=(3,), hidden=(2,), n_classes=2, seed=11)
        params = init_network(cfg)
        params["clf.w"][:] = 0.0
        params["clf.b"][:] = np.array([5.0, 0.0])  # always predicts class 0
        x = np.random.default_rng(11).normal(size=(10, 3))
        y = np.array([0, 1] * 5)
        assert evaluate(cfg, params, [x], y) == [0.5]

    def test_hand_counted_oracle(self):
        rng = np.random.default_rng(12)
        cfg = NetConfig(input_dims=(4,), hidden=(3,), n_classes=3, seed=12)
        params = init_network(cfg)
        x = rng.normal(size=(10, 4))
        y = rng.integers(0, 3, size=10)
        [(logits, _)] = forward(cfg, params, [x])
        expected = sum(1 for j in range(10) if logits[j].argmax() == y[j]) / 10
        assert evaluate(cfg, params, [x], y) == [expected]

    def test_empty_rejected(self):
        cfg = NetConfig(input_dims=(4,), hidden=(3,), n_classes=2)
        with pytest.raises(ValueError):
            evaluate(cfg, init_network(cfg), [np.zeros((0, 4))], np.zeros(0, dtype=int))


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg = NetConfig(input_dims=(6, 5), hidden=(4, 3), n_classes=3, aux_heads=True, seed=13)
        params = init_network(cfg)
        save_checkpoint(tmp_path / "ckpt", cfg, params)
        cfg2, params2 = load_checkpoint(tmp_path / "ckpt")
        assert cfg2 == cfg
        assert set(params2) == set(params)
        for name in params:
            assert params2[name].shape == params[name].shape
            assert params2[name].dtype == np.float64
            assert np.abs(params2[name] - params[name]).max() < 1e-6

    def test_manifest_holds_only_the_net(self, tmp_path):
        cfg = NetConfig(input_dims=(6, 5), hidden=(4, 3), n_classes=3, aux_heads=True, seed=13)
        save_checkpoint(tmp_path / "ckpt", cfg, init_network(cfg))
        assert tensorio.read_manifest(tmp_path / "ckpt" / "checkpoint.json") == {
            "net": {"input_dims": [6, 5], "hidden": [4, 3], "n_classes": 3, "aux_heads": True, "seed": 13}
        }
        assert sorted(p.name for p in (tmp_path / "ckpt").glob("*.f32")) == sorted(
            f"{name}.f32" for name in param_layout(cfg)
        )

    def test_checkpoint_with_tensor_list_loads_the_same(self, tmp_path):
        # Older checkpoints also list every tensor's name and shape; the list is ignored.
        cfg = NetConfig(input_dims=(6, 5), hidden=(4, 3), n_classes=3, aux_heads=True, seed=13)
        params = init_network(cfg)
        save_checkpoint(tmp_path / "ckpt", cfg, params)
        cfg_new, params_new = load_checkpoint(tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / "checkpoint.json"
        meta = tensorio.read_manifest(manifest)
        meta["tensors"] = [{"name": name, "shape": list(value.shape)} for name, value in params.items()]
        tensorio.write_manifest(manifest, meta)
        cfg_old, params_old = load_checkpoint(tmp_path / "ckpt")
        assert cfg_old == cfg_new == cfg
        assert list(params_old) == list(params_new) == list(params)
        for name, value in params_old.items():
            assert value.dtype == np.float64
            assert value.tobytes() == params_new[name].tobytes()
            assert value.tobytes() == params[name].astype(np.float32).astype(np.float64).tobytes()

    def test_failed_save_leaves_no_checkpoint_to_load(self, tmp_path, monkeypatch):
        # The save over an earlier checkpoint fails at its third tensor, so
        # the old manifest must not stay beside two of the new net's tensors.
        cfg = NetConfig(input_dims=(6, 5), hidden=(4, 3), n_classes=3, seed=13)
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, cfg, init_network(cfg))
        written = []
        write_raw = tensorio.write_raw

        def failing_write_raw(path, matrix):
            written.append(path.name)
            if len(written) == 3:
                raise OSError(f"{path}: simulated write failure")
            write_raw(path, matrix)

        monkeypatch.setattr(tensorio, "write_raw", failing_write_raw)
        with pytest.raises(OSError, match="simulated write failure"):
            save_checkpoint(ckpt, cfg, init_network(NetConfig(cfg.input_dims, cfg.hidden, 3, seed=14)))
        monkeypatch.undo()
        assert written == ["enc0.w0.f32", "enc0.b0.f32", "enc0.w1.f32"]
        with pytest.raises(OSError, match="checkpoint.json"):
            load_checkpoint(ckpt)

    def test_second_save_is_byte_identical(self, tmp_path):
        cfg = NetConfig(input_dims=(4,), hidden=(3,), n_classes=2, seed=14)
        params = init_network(cfg)
        save_checkpoint(tmp_path / "a", cfg, params)
        cfg2, params2 = load_checkpoint(tmp_path / "a")
        save_checkpoint(tmp_path / "b", cfg2, params2)
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()
