import numpy as np
import pytest

from freqbal.preference import (
    FrmBank,
    batch_preference,
    frm,
    mp_low,
    mp_sum,
    mp_weighted,
    score_maps,
)
from freqbal.spectral import FrequencyMaps, SpectralConfig, compute_maps


def maps_of(low, high):
    return FrequencyMaps(low=np.asarray(low, float), high=np.asarray(high, float))


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
        m = maps_of(np.ones((2, 2)), np.zeros((2, 2)))
        assert frm(m, sigma=1.0) == pytest.approx(4.0, abs=1e-12)

    def test_zero_low_gives_zero(self):
        m = maps_of(np.zeros((3, 3)), np.random.default_rng(0).random((3, 3)))
        assert frm(m) == 0.0

    def test_matches_literal_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            low = rng.normal(size=(4, 4))
            high = rng.normal(size=(4, 4))
            m = maps_of(low, high)
            assert frm(m, sigma=1e-8) == pytest.approx(
                literal_frm(low, high, 1e-8), rel=1e-12
            )

    def test_degenerate_high_equals_mp_low_over_sigma(self):
        rng = np.random.default_rng(2)
        low = rng.normal(size=(4, 4))
        m = maps_of(low, np.zeros((4, 4)))
        sigma = 1e-8
        assert frm(m, sigma) == mp_low(m) / sigma

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError):
            frm(maps_of(np.ones((2, 2)), np.ones((2, 2))), sigma=0.0)


class TestMpVariants:
    def test_mp_low_absolute_sum(self):
        assert mp_low(maps_of([[1, -1], [2, -2]], np.zeros((2, 2)))) == 6.0

    def test_mp_low_zero(self):
        assert mp_low(maps_of(np.zeros((2, 2)), np.ones((2, 2)))) == 0.0

    def test_mp_sum_single_cells(self):
        assert mp_sum(maps_of([[1.0]], [[2.0]])) == 3.0

    def test_mp_sum_zero(self):
        assert mp_sum(maps_of(np.zeros((2, 2)), np.zeros((2, 2)))) == 0.0

    def test_weighted_boundaries(self):
        rng = np.random.default_rng(3)
        m = maps_of(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
        assert mp_weighted(m, 1.0) == mp_low(m)
        assert mp_weighted(m, 0.0) == np.abs(m.high).sum()

    def test_weighted_linear_combination(self):
        rng = np.random.default_rng(4)
        m = maps_of(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
        expected = 0.9 * np.abs(m.low).sum() + 0.1 * np.abs(m.high).sum()
        assert mp_weighted(m, 0.9) == pytest.approx(expected, rel=1e-12)

    def test_weighted_range_check(self):
        m = maps_of(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            mp_weighted(m, 1.1)

    def test_l1_oracles(self):
        rng = np.random.default_rng(5)
        low = rng.normal(size=(4, 4))
        high = rng.normal(size=(4, 4))
        m = maps_of(low, high)
        l1_low = sum(abs(v) for v in low.ravel())
        l1_high = sum(abs(v) for v in high.ravel())
        assert mp_low(m) == pytest.approx(l1_low, rel=1e-12)
        assert mp_sum(m) == pytest.approx(l1_low + l1_high, rel=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            score_maps(maps_of([[1.0]], [[1.0]]), "mp_quadratic")


class TestScaleMonotonicity:
    def test_scaling_low_strictly_increases_all_metrics(self):
        rng = np.random.default_rng(6)
        low = rng.normal(size=(4, 4)) + 0.1
        high = rng.normal(size=(4, 4))
        base = maps_of(low, high)
        scaled = maps_of(2.5 * low, high)
        assert frm(scaled) > frm(base)
        assert mp_low(scaled) > mp_low(base)
        assert mp_sum(scaled) > mp_sum(base)
        assert mp_weighted(scaled, 0.9) > mp_weighted(base, 0.9)


class TestBatch:
    def test_single_sample_equals_single_score(self):
        rng = np.random.default_rng(7)
        img = rng.random((16, 16))
        cfg = SpectralConfig()
        single = frm(compute_maps(img, cfg), cfg.sigma)
        assert batch_preference(img[None], cfg) == pytest.approx(single, rel=1e-12)

    def test_duplicates_equal_single(self):
        rng = np.random.default_rng(8)
        img = rng.random((16, 16))
        cfg = SpectralConfig()
        one = batch_preference(img[None], cfg)
        two = batch_preference(np.stack([img, img]), cfg)
        assert two == pytest.approx(one, rel=1e-12)

    def test_mixed_batch_is_mean_of_singles(self):
        rng = np.random.default_rng(9)
        batch = rng.random((6, 16, 16))
        cfg = SpectralConfig()
        for kind in ("frm", "mp_low", "mp_sum", "mp_weighted"):
            singles = [
                score_maps(compute_maps(img, cfg), kind, cfg.sigma, 0.9) for img in batch
            ]
            assert batch_preference(batch, cfg, kind) == pytest.approx(
                float(np.mean(singles)), rel=1e-12
            )

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            batch_preference(np.zeros((0, 16, 16)), SpectralConfig())


class TestBank:
    def test_first_observation_taken_verbatim(self):
        bank = FrmBank(omega=0.5)
        assert bank.update(4.0) == 4.0
        assert bank.count == 1

    def test_blend_arithmetic(self):
        bank = FrmBank(omega=0.5)
        bank.update(4.0)
        assert bank.update(2.0) == 3.0

    def test_recursive_oracle_sequence(self):
        rng = np.random.default_rng(10)
        obs = rng.random(100) * 10
        bank = FrmBank(omega=0.5)
        expected = None
        for x in obs:
            got = bank.update(float(x))
            expected = float(x) if expected is None else 0.5 * expected + 0.5 * float(x)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_convex_hull_property(self):
        rng = np.random.default_rng(11)
        for omega in (0.0, 0.3, 0.5, 0.9, 1.0):
            bank = FrmBank(omega=omega)
            obs = rng.random(50) * 5
            for x in obs:
                bank.update(float(x))
                assert obs.min() - 1e-12 <= bank.value <= obs.max() + 1e-12

    def test_negative_score_rejected(self):
        bank = FrmBank()
        with pytest.raises(ValueError):
            bank.update(-1.0)

    def test_non_finite_score_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                FrmBank().update(bad)

    def test_bad_omega_rejected(self):
        with pytest.raises(ValueError):
            FrmBank(omega=1.5)
