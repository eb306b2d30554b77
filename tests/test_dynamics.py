import numpy as np
import pytest

import freqbal.dynamics as dynamics
from freqbal.dynamics import coupling_probe, decay_check, suppression_experiment
from freqbal.seeds import stream_rng, stream_seed
from freqbal.synthdata import generate, imbalanced_specs
from freqbal.tinynet import (
    NetConfig,
    backward,
    cross_entropy,
    encoder_grad_norms,
    forward,
    init_network,
    onehot,
    sgd_step,
    softmax,
)


def reference_suppression(dataset, dominant, weak, eta, seed, hidden=(64, 32), batch_size=64,
                          prefit_target=0.05, prefit_max_iters=2000, measure_iters=20):
    """suppression_experiment done the plain way: every modality gathered,
    masked branches updated with explicit zero gradients, and the two arms
    run one after the other."""
    m = dataset.n_modalities
    images, labels = dataset.train_split()
    n = len(labels)
    h, w = dataset.dims
    cfg = NetConfig(input_dims=(h * w,) * m, hidden=hidden, n_classes=dataset.n_classes,
                    seed=stream_seed(seed, "init"))
    params0 = init_network(cfg)
    solo = [i == dominant for i in range(m)]

    def dense(params, grads):
        return {name: grads.get(name, np.zeros_like(value)) for name, value in params.items()}

    prefit, rng, prefit_loss = dict(params0), stream_rng(seed, "prefit"), None
    for it in range(prefit_max_iters):
        idx = rng.integers(0, n, size=batch_size)
        grads, *_ = backward(cfg, prefit, [x[idx] for x in images], labels[idx], mask=solo)
        prefit = sgd_step(cfg, prefit, dense(prefit, grads), eta)
        if it % 25 == 24:
            prefit_loss = cross_entropy(forward(cfg, prefit, images, [solo])[0][0], labels)
            if prefit_loss < prefit_target:
                break

    def measure(start):
        batch_rng, params, norms = stream_rng(seed, "measure"), dict(start), []
        for _ in range(measure_iters):
            idx = batch_rng.integers(0, n, size=batch_size)
            grads, *_ = backward(cfg, params, [x[idx] for x in images], labels[idx])
            norms.append(encoder_grad_norms(cfg, grads)[weak])
            params = sgd_step(cfg, params, dense(params, grads), eta)
        return float(np.mean(norms))

    treated, control = measure(prefit), measure(params0)
    return {
        "weak_norm_prefit": treated,
        "weak_norm_control": control,
        "ratio": treated / control,
        "prefit_loss": prefit_loss,
    }


def zero_crossings(vec):
    signs = np.sign(vec[np.abs(vec) > 1e-12])
    return int(np.sum(signs[1:] != signs[:-1]))


class TestSpectrum:
    """decay_check's eigen-structure of X X^T, read at steps=0."""

    def test_diagonal_matrix(self):
        x = np.diag(np.sqrt([1.0, 3.0]))
        report = decay_check(x, np.zeros(2), steps=0)
        w, v = report.eigenvalues, report.eigenvectors
        assert np.allclose(w, [3.0, 1.0], atol=1e-14)
        assert np.allclose(np.abs(v), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)

    def test_scaled_identity(self):
        x = np.sqrt(2.0) * np.eye(5)
        report = decay_check(x, np.zeros(5), steps=0)
        w, v = report.eigenvalues, report.eigenvectors
        assert np.allclose(w, 2.0, atol=1e-14)
        assert np.allclose(v @ v.T, np.eye(5), atol=1e-12)

    def test_random_spd_reconstruction(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(16, 16))
        h = x @ x.T
        report = decay_check(x, np.zeros(16), steps=0)
        w, v = report.eigenvalues, report.eigenvectors
        assert np.all(np.diff(w) <= 1e-12)
        recon = (v * w) @ v.T
        assert np.linalg.norm(recon - h) < 1e-8
        assert np.abs(v.T @ v - np.eye(16)).max() < 1e-10


class TestDecay:
    def test_unit_factor_direction_dies_in_one_step(self):
        # All eigenvalues 4, eta = 1/4: the contraction factor is exactly 0.
        x = 2.0 * np.eye(8)
        y = np.random.default_rng(3).normal(size=8)
        report = decay_check(x, y, eta=0.25, steps=3)
        assert np.abs(report.factors).max() == 0.0
        assert np.abs(report.trajectories[1]).max() < 1e-12

    def test_zero_steps_keeps_initial_projections(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 10))
        y = rng.normal(size=6)
        report = decay_check(x, y, steps=0)
        expected = report.eigenvectors.T @ (np.zeros(6) - y)
        assert np.allclose(report.trajectories[0], expected, atol=1e-12)

    def test_closed_form_agreement(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(32, 64)) / 8.0
        y = rng.normal(size=32)
        report = decay_check(x, y, steps=50)
        live = report.eigenvalues > 1e-8
        assert live.sum() == 32
        assert report.max_rel_deviation[live].max() < 1e-6

    def test_cross_direction_absolute_leakage(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(16, 24)) / 5.0
        y = rng.normal(size=16)
        report = decay_check(x, y, steps=40)
        exponents = np.arange(41)[:, None]
        predicted = report.trajectories[0][None, :] * report.factors[None, :] ** exponents
        assert np.abs(np.abs(report.trajectories) - np.abs(predicted)).max() < 1e-6

    def test_unstable_eta_rejected(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(8, 8))
        y = rng.normal(size=8)
        lam_max = decay_check(x, y, steps=0).eigenvalues[0]
        with pytest.raises(ValueError) as err:
            decay_check(x, y, eta=2.5 / lam_max, steps=5)
        assert str(2.0 / lam_max) in str(err.value)

    def test_smooth_kernel_top_eigenvector_has_fewest_zero_crossings(self):
        # Stand-in construction for the claim that leading eigen-directions
        # are the lowest-frequency ones: an RBF kernel Gram over a 1-D grid
        # has sinusoid-like eigenvectors of increasing oscillation.
        grid = np.linspace(0.0, 1.0, 48)
        h = np.exp(-((grid[:, None] - grid[None, :]) ** 2) / (2 * 0.2**2))
        # The kernel is not positive definite in floating point, so no
        # feature matrix yields it; its eigenvectors, descending, come from eigh.
        eigenvectors = np.linalg.eigh(h)[1][:, ::-1]
        crossings = [zero_crossings(eigenvectors[:, i]) for i in range(10)]
        assert all(crossings[0] <= c for c in crossings[1:])


class TestCouplingProbe:
    def setup_method(self):
        self.rng = np.random.default_rng(8)
        self.cfg = NetConfig(input_dims=(6, 5), hidden=(5, 4), n_classes=3, seed=8)
        self.params = init_network(self.cfg)
        self.inputs = [self.rng.normal(size=(10, 6)), self.rng.normal(size=(10, 5))]
        self.labels = self.rng.integers(0, 3, size=10)

    def test_gradients_scale_linearly_with_error(self):
        report = coupling_probe(self.cfg, self.params, self.inputs, self.labels)
        assert report.scaling_max_rel_err < 1e-6
        assert report.error_norm > 0
        assert np.all(report.encoder_grad_norms > 0)

    def test_perfectly_fit_batch_has_tiny_error_and_gradients(self):
        cfg = NetConfig(input_dims=(3,), hidden=(3,), n_classes=2, seed=9)
        params = init_network(cfg)
        params["enc0.w0"] = np.eye(3)
        params["clf.w"] = np.array([[1e4, -1e4], [-1e4, 1e4], [0.0, 0.0]])
        x = np.array([[1.0, 0, 0], [0.0, 1, 0]])
        labels = np.array([0, 1])
        report = coupling_probe(cfg, params, [x], labels)
        assert report.error_norm < 1e-4
        assert report.encoder_grad_norms.max() < 1e-4

    def test_single_modality_classifier_closed_form(self):
        cfg = NetConfig(input_dims=(5,), hidden=(5,), n_classes=3, seed=10)
        params = init_network(cfg)
        params["enc0.w0"] = np.eye(5)
        x = np.abs(self.rng.normal(size=(6, 5)))
        labels = self.rng.integers(0, 3, size=6)
        from freqbal.tinynet import backward

        grads, *_ = backward(cfg, params, [x], labels)
        logits = x @ params["clf.w"] + params["clf.b"]
        expected = x.T @ (softmax(logits) - onehot(labels, 3)) / 6
        assert np.abs(grads["clf.w"] - expected).max() < 1e-12


class TestSuppression:
    def test_prefit_dominant_cuts_weak_gradient_norm(self):
        ds = generate(imbalanced_specs(), n_train=512, n_test=0, seed=1000)
        result = suppression_experiment(ds, dominant=0, weak=1, eta=0.15, seed=0)
        assert result["prefit_loss"] < 0.05
        assert result["ratio"] < 0.5

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reference_loop_bitwise(self, seed):
        ds = generate(imbalanced_specs(), n_train=256, n_test=0, seed=1100 + seed)
        kwargs = dict(dominant=2, weak=0, eta=0.15, seed=seed, hidden=(32, 16), measure_iters=10)
        result = suppression_experiment(ds, **kwargs)
        assert result["prefit_loss"] < 0.05
        assert result == reference_suppression(ds, **kwargs)

    def test_prefit_loss_over_blocks_of_rows_matches_whole_split_bitwise(self, monkeypatch):
        # 256 rows in blocks of 100: two whole blocks and a partial one.
        monkeypatch.setattr(dynamics, "PREFIT_ROWS", 100)
        ds = generate(imbalanced_specs(), n_train=256, n_test=0, seed=1102)
        kwargs = dict(dominant=0, weak=1, eta=0.15, seed=2, hidden=(32, 16), measure_iters=5)
        result = suppression_experiment(ds, **kwargs)
        expected = reference_suppression(ds, **kwargs)
        assert (result["prefit_loss"], result["ratio"]) == (expected["prefit_loss"], expected["ratio"])

    def test_prefit_logits_are_one_pass_over_the_split_bitwise(self, monkeypatch):
        # 201 rows in blocks of at most 100: fixed blocks of 100 would leave
        # a 1-row tail, which BLAS may multiply with another kernel.
        monkeypatch.setattr(dynamics, "PREFIT_ROWS", 100)
        ds = generate(imbalanced_specs(), n_train=201, n_test=0, seed=1103)
        images, _ = ds.train_split()
        calls, checked = [], []

        def recording_forward(net_cfg, params, inputs, masks):
            calls.append((net_cfg, params, masks))
            return forward(net_cfg, params, inputs, masks)

        def checking_cross_entropy(logits, labels):
            # Checked at once: the params of a later call may reuse arrays.
            net_cfg, params, masks = calls[-1]
            [(whole, _)] = forward(net_cfg, params, images, masks)
            checked.append(logits.tobytes() == whole.tobytes())
            return cross_entropy(logits, labels)

        monkeypatch.setattr(dynamics, "forward", recording_forward)
        monkeypatch.setattr(dynamics, "cross_entropy", checking_cross_entropy)
        suppression_experiment(ds, dominant=0, weak=1, eta=0.15, seed=2, hidden=(32, 16), measure_iters=1)
        assert checked and all(checked)

    def test_initial_params_never_written(self, monkeypatch):
        made = []

        def recording_init(cfg):
            params = init_network(cfg)
            made.append((params, {name: value.tobytes() for name, value in params.items()}))
            return params

        monkeypatch.setattr(dynamics, "init_network", recording_init)
        ds = generate(imbalanced_specs(), n_train=256, n_test=0, seed=1100)
        suppression_experiment(ds, dominant=0, weak=1, eta=0.15, seed=0, hidden=(32, 16), measure_iters=5)
        (params0, saved), = made
        for name, value in params0.items():
            assert value.tobytes() == saved[name], name
