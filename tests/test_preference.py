import numpy as np
import pytest

import freqbal
from freqbal import preference, spectral
from freqbal.allocation import AllocationParams, allocate
from freqbal.cli import main
from freqbal.errors import NumericError
from freqbal.preference import METRIC_KINDS, sample_preference, score_bands
from freqbal.spectral import SpectralConfig, compute_maps_batch
from freqbal.synthdata import generate, imbalanced_specs


def literal_frm(low, high, sigma):
    # Straight-line transcription of the ratio score with the flipped high map.
    h, w = low.shape
    total = 0.0
    for a in range(h):
        for b in range(w):
            total += abs(low[a, b] / (high[h - 1 - a, w - 1 - b] + sigma))
    return total


class TestFrm:
    def test_ones_over_zero_high(self):
        score = score_bands(np.ones((2, 2)), np.zeros((2, 2)), "frm", 1.0, 0.9)
        assert score == pytest.approx(4.0, abs=1e-12)

    def test_zero_low_gives_zero(self):
        high = np.random.default_rng(0).random((3, 3))
        assert score_bands(np.zeros((3, 3)), high, "frm", 1e-8, 0.9) == 0.0

    def test_matches_literal_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            low = rng.normal(size=(4, 4))
            high = rng.normal(size=(4, 4))
            assert score_bands(low, high, "frm", 1e-8, 0.9) == pytest.approx(
                literal_frm(low, high, 1e-8), rel=1e-12
            )

    def test_degenerate_high_equals_mp_low_over_sigma(self):
        rng = np.random.default_rng(2)
        low = rng.normal(size=(4, 4))
        high = np.zeros((4, 4))
        sigma = 1e-8
        assert score_bands(low, high, "frm", sigma, 0.9) == (
            score_bands(low, high, "mp_low", sigma, 0.9) / sigma
        )

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError):
            score_bands(np.ones((2, 2)), np.ones((2, 2)), "frm", 0.0, 0.9)


class TestMpVariants:
    def test_mp_low_absolute_sum(self):
        low = np.array([[1, -1], [2, -2]], float)
        assert score_bands(low, np.zeros((2, 2)), "mp_low", 1e-8, 0.9) == 6.0

    def test_mp_low_zero(self):
        assert score_bands(np.zeros((2, 2)), np.ones((2, 2)), "mp_low", 1e-8, 0.9) == 0.0

    def test_mp_sum_single_cells(self):
        assert score_bands(np.array([[1.0]]), np.array([[2.0]]), "mp_sum", 1e-8, 0.9) == 3.0

    def test_mp_sum_zero(self):
        assert score_bands(np.zeros((2, 2)), np.zeros((2, 2)), "mp_sum", 1e-8, 0.9) == 0.0

    def test_weighted_boundaries(self):
        rng = np.random.default_rng(3)
        low, high = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        mp_low = score_bands(low, high, "mp_low", 1e-8, 0.9)
        assert score_bands(low, high, "mp_weighted", 1e-8, 1.0) == mp_low
        assert score_bands(low, high, "mp_weighted", 1e-8, 0.0) == np.abs(high).sum()

    def test_weighted_linear_combination(self):
        rng = np.random.default_rng(4)
        low, high = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        expected = 0.9 * np.abs(low).sum() + 0.1 * np.abs(high).sum()
        assert score_bands(low, high, "mp_weighted", 1e-8, 0.9) == pytest.approx(expected, rel=1e-12)

    def test_weighted_range_check(self):
        with pytest.raises(ValueError):
            score_bands(np.ones((2, 2)), np.ones((2, 2)), "mp_weighted", 1e-8, 1.1)

    def test_l1_oracles(self):
        rng = np.random.default_rng(5)
        low = rng.normal(size=(4, 4))
        high = rng.normal(size=(4, 4))
        l1_low = sum(abs(v) for v in low.ravel())
        l1_high = sum(abs(v) for v in high.ravel())
        assert score_bands(low, high, "mp_low", 1e-8, 0.9) == pytest.approx(l1_low, rel=1e-12)
        assert score_bands(low, high, "mp_sum", 1e-8, 0.9) == pytest.approx(
            l1_low + l1_high, rel=1e-12
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            score_bands(np.array([[1.0]]), np.array([[1.0]]), "mp_quadratic", 1e-8, 0.9)


class TestScaleMonotonicity:
    def test_scaling_low_strictly_increases_all_metrics(self):
        rng = np.random.default_rng(6)
        low = rng.normal(size=(4, 4)) + 0.1
        high = rng.normal(size=(4, 4))
        for kind in METRIC_KINDS:
            scaled = score_bands(2.5 * low, high, kind, 1e-8, 0.9)
            assert scaled > score_bands(low, high, kind, 1e-8, 0.9), kind


class TestBatch:
    def test_single_sample_equals_single_score(self):
        rng = np.random.default_rng(7)
        img = rng.random((16, 16))
        cfg = SpectralConfig()
        (low,), (high,) = compute_maps_batch(img[None], cfg)
        single = score_bands(low, high, "frm", cfg.sigma, 0.9)
        assert sample_preference(img[None], cfg).shape == (1,)
        assert sample_preference(img[None], cfg).mean() == pytest.approx(single, rel=1e-12)

    def test_duplicates_equal_single(self):
        rng = np.random.default_rng(8)
        img = rng.random((16, 16))
        cfg = SpectralConfig()
        one = sample_preference(img[None], cfg).mean()
        two = sample_preference(np.stack([img, img]), cfg).mean()
        assert two == pytest.approx(one, rel=1e-12)

    def test_mixed_batch_is_mean_of_singles(self):
        rng = np.random.default_rng(9)
        batch = rng.random((6, 16, 16))
        cfg = SpectralConfig()
        for kind in ("frm", "mp_low", "mp_sum", "mp_weighted"):
            singles = []
            for img in batch:
                (low,), (high,) = compute_maps_batch(img[None], cfg)
                singles.append(score_bands(low, high, kind, cfg.sigma, 0.9))
            per_sample = sample_preference(batch, cfg, kind)
            assert per_sample == pytest.approx(singles, rel=1e-12)
            assert per_sample.mean() == pytest.approx(float(np.mean(singles)), rel=1e-12)

    def test_empty_batch_rejected(self):
        # A single plane is no stack either: callers pass plane[None].
        for shape in [(0, 16, 16), (16, 16)]:
            with pytest.raises(ValueError):
                sample_preference(np.zeros(shape), SpectralConfig())


class TestScoreTable:
    def test_table_lookup_is_bitwise_the_batch_score(self):
        # The training loop scores a split once and averages a batch's
        # entries; that must be exactly the score of the batch's own pixels,
        # for full batches and for a short last batch alike.
        stack = generate(imbalanced_specs(), n_train=500, n_test=0, seed=31).images[1]
        cfg = SpectralConfig()
        rng = np.random.default_rng(12)
        for kind in METRIC_KINDS:
            table = sample_preference(stack, cfg, kind)
            for b in range(200):
                idx = rng.choice(len(stack), 16 if b == 0 else 64, replace=False)
                direct = sample_preference(stack[idx], cfg, kind).mean()
                assert table[idx].mean().tobytes() == direct.tobytes(), (kind, b)


class TestBank:
    """The moving average of each modality's batch score across steps,
    which allocation.allocate runs with the history weight omega_bank."""

    def test_first_observation_taken_verbatim(self):
        mw = allocate([4.0, 1.0], None, 1e-8, AllocationParams())
        assert mw.smooth.tolist() == [4.0, 1.0]

    def test_blend_arithmetic(self):
        mw = allocate([2.0, 6.0], np.array([4.0, 2.0]), 1e-8, AllocationParams(omega_bank=0.5))
        assert mw.smooth.tolist() == [3.0, 4.0]
        assert mw.raw.tolist() == [2.0, 6.0]

    def test_recursive_oracle_sequence(self):
        # Each modality's smoothed score is bitwise the scalar recurrence
        # in Python floats, for every history weight.
        rng = np.random.default_rng(10)
        obs = rng.random((100, 3)) * 10
        for omega in (0.0, 0.3, 0.5, 0.9, 1.0):
            params = AllocationParams(omega_bank=omega)
            smooth, expected = None, None
            for x in obs:
                smooth = allocate(x, smooth, 1e-8, params).smooth
                expected = (
                    [float(v) for v in x] if expected is None
                    else [omega * e + (1.0 - omega) * float(v) for e, v in zip(expected, x)]
                )
                assert smooth.tolist() == expected

    def test_convex_hull_property(self):
        rng = np.random.default_rng(11)
        for omega in (0.0, 0.3, 0.5, 0.9, 1.0):
            params = AllocationParams(omega_bank=omega)
            obs = rng.random((50, 2)) * 5
            smooth = None
            for x in obs:
                smooth = allocate(x, smooth, 1e-8, params).smooth
                assert np.all(obs.min(axis=0) - 1e-12 <= smooth)
                assert np.all(smooth <= obs.max(axis=0) + 1e-12)

    def test_negative_score_rejected(self):
        with pytest.raises(ValueError, match="^negative score -1.0 of modality 1$"):
            allocate([1.0, -1.0], np.array([1.0, 1.0]), 1e-8, AllocationParams())

    def test_non_finite_score_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NumericError, match="^non-finite score of modality 0$"):
                allocate([bad, 1.0], None, 1e-8, AllocationParams())

    def test_bad_omega_rejected(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="omega_bank must lie in"):
            AllocationParams(omega_bank=1.5)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs = 1\nn_train = 64\nn_test = 32\nomega_bank = 1.5\n")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: omega_bank must lie in [0,1], got 1.5\n"
        assert not out.exists()


def test_every_exported_name_resolves():
    for module in (freqbal, spectral, preference):
        for name in getattr(module, "__all__", ()):
            assert getattr(module, name, None) is not None, (module.__name__, name)
