import math

import numpy as np
import pytest

from freqbal.allocation import AllocationParams, allocate, relative_ratio, weight
from freqbal.errors import NumericError
from freqbal.preference import sample_preference
from freqbal.spectral import SpectralConfig
from freqbal.synthdata import ModalitySpec, generate

DEFAULTS = AllocationParams()


class TestRelativeRatio:
    def test_equal_scores_give_unit_ratio(self):
        t = relative_ratio([5.0, 5.0, 5.0], sigma=0.0)
        assert np.array_equal(t, [1.0, 1.0, 1.0])

    def test_two_modalities(self):
        t = relative_ratio([2.0, 0.0], sigma=0.0)
        assert np.array_equal(t, [2.0, 0.0])

    def test_three_modalities(self):
        t = relative_ratio([3.0, 1.0, 2.0], sigma=1e-8)
        assert t == pytest.approx([1.5, 0.5, 1.0], rel=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            relative_ratio([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            relative_ratio([1.0, -2.0])


class TestWeight:
    def test_pivot_is_exactly_one(self):
        assert weight(0.7, DEFAULTS) == 1.0

    def test_asymptote(self):
        assert weight(1e9, DEFAULTS) == pytest.approx(0.5, abs=1e-12)

    def test_at_zero(self):
        expected = 1.5 - 1.0 / (1.0 + math.exp(4.2))
        assert weight(0.0, DEFAULTS) == pytest.approx(expected, abs=1e-12)
        assert weight(0.0, DEFAULTS) == pytest.approx(1.4852, abs=5e-5)

    def test_strictly_decreasing_and_in_range(self):
        t = np.linspace(0.0, 2.0, 10_000)
        k = weight(t, DEFAULTS)
        assert np.all(np.diff(k) < 0)
        assert np.all(k > 0.5) and np.all(k < 1.5)

    def test_extreme_inputs_finite(self):
        for t in (-1e300, 0.0, 1e300, 1e9):
            assert np.isfinite(weight(t, DEFAULTS))

    def test_param_validation(self):
        with pytest.raises(ValueError, match="^lambda must be positive"):
            AllocationParams(lam=0.0)
        for alpha, beta in ((-0.1, -1.0), (0.4, 1.0), (1.0, 1.1)):
            with pytest.raises(ValueError, match="alpha >= 0 and alpha >= beta"):
                AllocationParams(alpha=alpha, beta=beta)
        for alpha, beta in ((0.0, 0.0), (1.0, 1.0), (1.0, -0.5), (1.0, 0.0)):
            k = weight(np.linspace(-5.0, 5.0, 101), AllocationParams(alpha=alpha, beta=beta))
            assert np.all(k >= 0)
        with pytest.raises(ValueError, match="omega_bank"):
            AllocationParams(omega_bank=1.5)


class TestScaleInvariance:
    def test_common_scaling_leaves_t_unchanged_at_zero_sigma(self):
        scores = np.array([3.0, 1.0, 2.0])
        t1 = relative_ratio(scores, sigma=0.0)
        t2 = relative_ratio(7.0 * scores, sigma=0.0)
        assert np.allclose(t1, t2, atol=0.0)

    def test_common_scaling_with_small_sigma(self):
        scores = np.array([3.0, 1.0, 2.0])
        t1 = relative_ratio(scores, sigma=1e-8)
        t2 = relative_ratio(100.0 * scores, sigma=1e-8)
        assert np.abs(weight(t1, DEFAULTS) - weight(t2, DEFAULTS)).max() < 1e-6

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        scores = rng.random(4) * 10
        perm = rng.permutation(4)
        t = relative_ratio(scores)
        assert np.allclose(relative_ratio(scores[perm]), t[perm], atol=1e-15)
        assert np.allclose(weight(t[perm], DEFAULTS), weight(t, DEFAULTS)[perm], atol=0.0)


class TestAllocate:
    def test_single_modality(self):
        rng = np.random.default_rng(1)
        cfg = SpectralConfig()
        score = sample_preference(rng.random((4, 16, 16)), cfg).mean()
        mw = allocate([score], None, cfg.sigma, DEFAULTS)
        assert mw.t[0] == pytest.approx(1.0, abs=1e-6)
        assert mw.k[0] == pytest.approx(weight(1.0, DEFAULTS), abs=1e-5)

    def test_identical_batches_get_equal_weights(self):
        rng = np.random.default_rng(2)
        batch = rng.random((4, 16, 16))
        cfg = SpectralConfig()
        scores = [sample_preference(b, cfg).mean() for b in (batch, batch.copy())]
        mw = allocate(scores, None, cfg.sigma, DEFAULTS)
        assert mw.k[0] == mw.k[1]
        assert mw.t[0] == mw.t[1]

    def test_weight_order_reverses_preference_order(self):
        specs = (
            ModalitySpec(low_energy=50.0, high_energy=1.0),
            ModalitySpec(low_energy=10.0, high_energy=5.0),
            ModalitySpec(low_energy=2.0, high_energy=10.0),
        )
        ds = generate(specs, n_train=32, n_test=0, seed=3)
        cfg = SpectralConfig()
        scores = [float(sample_preference(m, cfg).mean()) for m in ds.images]
        mw = allocate(scores, None, cfg.sigma, DEFAULTS)
        assert np.argsort(scores).tolist() == np.argsort(-mw.k).tolist()
        # The first step's smoothed value is the raw score itself.
        assert mw.raw.tolist() == scores and mw.smooth.tolist() == scores

    def test_non_finite_score_is_numeric_error(self):
        previous = np.array([2.0, 3.0])
        for bad in (np.inf, np.nan):
            with pytest.raises(NumericError, match="modality 1"):
                allocate([1.0, bad], previous, SpectralConfig().sigma, DEFAULTS)
        assert previous.tolist() == [2.0, 3.0]

    def test_previous_of_another_shape_rejected(self):
        for previous in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]):
            with pytest.raises(ValueError, match="previous scores of shape"):
                allocate([1.0, 2.0], previous, SpectralConfig().sigma, DEFAULTS)

    def test_changes_nothing_it_is_given(self):
        raw, previous = np.array([2.0, 6.0]), np.array([4.0, 2.0])
        mw = allocate(raw, previous, 1e-8, DEFAULTS)
        assert raw.tolist() == [2.0, 6.0] and previous.tolist() == [4.0, 2.0]
        assert mw.raw is not raw and mw.smooth is not previous
