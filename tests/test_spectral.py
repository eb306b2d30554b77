import numpy as np
import pytest

from freqbal.spectral import (
    SpectralConfig,
    band_projections,
    center_crop,
    compute_maps_batch,
    fft_filter,
)


def naive_dct(x):
    # Literal O(p^4) orthonormal DCT-II double sum.
    p = x.shape[0]
    out = np.zeros((p, p))
    for u in range(p):
        for v in range(p):
            cu = np.sqrt(1.0 / p) if u == 0 else np.sqrt(2.0 / p)
            cv = np.sqrt(1.0 / p) if v == 0 else np.sqrt(2.0 / p)
            acc = 0.0
            for m in range(p):
                for n in range(p):
                    acc += (
                        x[m, n]
                        * np.cos((2 * m + 1) * u * np.pi / (2 * p))
                        * np.cos((2 * n + 1) * v * np.pi / (2 * p))
                    )
            out[u, v] = cu * cv * acc
    return out


class TestPartition:
    def test_quadrants(self):
        # Patch (r, c) of the plane fills block (r, c) of each band map.
        img = np.arange(256, dtype=float).reshape(16, 16)
        (low,), (high,) = compute_maps_batch(img[None], SpectralConfig())
        assert low.shape == (4, 4)
        b, _ = band_projections(8, 8, 8)
        for r in range(2):
            for c in range(2):
                coeffs = b @ img[r * 8 : (r + 1) * 8, c * 8 : (c + 1) * 8] @ b.T
                block = np.s_[r * 2 : (r + 1) * 2, c * 2 : (c + 1) * 2]
                assert np.abs(low[block] - coeffs[:2, :2]).max() < 1e-9
                assert np.abs(high[block] - coeffs[6:, 6:]).max() < 1e-9

    def test_single_patch(self):
        img = np.random.default_rng(0).random((8, 8))
        coeffs = naive_dct(img)
        for q in (1, 2, 3, 4):
            (low,), (high,) = compute_maps_batch(img[None], SpectralConfig(q=q))
            assert np.abs(low - coeffs[:q, :q]).max() < 1e-12
            assert np.abs(high - coeffs[8 - q :, 8 - q :]).max() < 1e-12

    def test_roundtrip_24x16(self):
        # Band maps put back into pixels by the transposed projections are
        # recovered exactly by the analysis.
        rng = np.random.default_rng(1)
        low, high = rng.normal(size=(2, 6, 4))
        low_h, high_h = band_projections(24, 8, 2)
        low_w, high_w = band_projections(16, 8, 2)
        img = low_h.T @ low @ low_w + high_h.T @ high @ high_w
        (got_low,), (got_high,) = compute_maps_batch(img[None], SpectralConfig())
        assert np.abs(got_low - low).max() < 1e-12
        assert np.abs(got_high - high).max() < 1e-12

    def test_bijection_property(self):
        # The low and high projections of an axis together have orthonormal
        # rows, so analysis undoes synthesis for every grid size.
        rng = np.random.default_rng(2)
        for _ in range(20):
            grid = int(rng.integers(1, 5))
            q = int(rng.integers(1, 5))
            low, high = band_projections(grid * 8, 8, q)
            stacked = np.concatenate((low, high))
            assert stacked.shape == (2 * grid * q, grid * 8)
            assert np.abs(stacked @ stacked.T - np.eye(2 * grid * q)).max() < 1e-12

    def test_not_divisible_rejected(self):
        with pytest.raises(ValueError):
            compute_maps_batch(np.zeros((1, 12, 16)), SpectralConfig())
        with pytest.raises(ValueError):
            band_projections(12, 8, 2)


class TestDct:
    def test_constant_patch_dc_only(self):
        b, _ = band_projections(8, 8, 8)
        coeffs = b @ np.full((8, 8), 3.0) @ b.T
        assert coeffs[0, 0] == pytest.approx(8 * 3.0, abs=1e-12)
        off = coeffs.copy()
        off[0, 0] = 0.0
        assert np.abs(off).max() < 1e-12

    def test_zero_patch(self):
        b, _ = band_projections(8, 8, 8)
        assert np.abs(b @ np.zeros((8, 8)) @ b.T).max() == 0.0

    def test_matches_naive_definition(self):
        rng = np.random.default_rng(3)
        for p in (4, 8):
            x = rng.random((p, p))
            b, _ = band_projections(p, p, p)
            assert np.abs(b @ x @ b.T - naive_dct(x)).max() < 1e-9

    def test_roundtrip_and_parseval(self):
        rng = np.random.default_rng(4)
        b, _ = band_projections(8, 8, 8)
        for _ in range(50):
            x = rng.random((8, 8))
            c = b @ x @ b.T
            assert np.abs(b.T @ c @ b - x).max() < 1e-9
            assert abs((c**2).sum() - (x**2).sum()) < 1e-9


class TestBands:
    def test_index_encoding_corners(self):
        coeffs = np.array([[10.0 * r + c for c in range(8)] for r in range(8)])
        b, _ = band_projections(8, 8, 8)
        (low,), (high,) = compute_maps_batch((b.T @ coeffs @ b)[None], SpectralConfig(q=2))
        assert np.abs(low - [[0.0, 1.0], [10.0, 11.0]]).max() < 1e-12
        assert np.abs(high - [[66.0, 67.0], [76.0, 77.0]]).max() < 1e-12

    def test_half_patch_disjoint_tiling(self):
        coeffs = np.random.default_rng(5).random((8, 8))
        b, _ = band_projections(8, 8, 8)
        (low,), (high,) = compute_maps_batch((b.T @ coeffs @ b)[None], SpectralConfig(q=4))
        assert np.abs(low - coeffs[:4, :4]).max() < 1e-12
        assert np.abs(high - coeffs[4:, 4:]).max() < 1e-12

    def test_matches_bruteforce_slicing(self):
        rng = np.random.default_rng(6)
        coeffs = rng.random((8, 8))
        b, _ = band_projections(8, 8, 8)
        img = b.T @ coeffs @ b
        for q in (1, 2, 3, 4):
            (low,), (high,) = compute_maps_batch(img[None], SpectralConfig(q=q))
            exp_low = np.array([[coeffs[a, b] for b in range(q)] for a in range(q)])
            exp_high = np.array(
                [[coeffs[8 - q + a, 8 - q + b] for b in range(q)] for a in range(q)]
            )
            assert np.abs(low - exp_low).max() < 1e-12
            assert np.abs(high - exp_high).max() < 1e-12

    def test_band_index_sets_disjoint(self):
        # Disjoint corners make the two band projections orthogonal.
        for p in (4, 8, 16):
            for q in range(1, p // 2 + 1):
                low, high = band_projections(2 * p, p, q)
                assert np.abs(low @ high.T).max() < 1e-12

    def test_overlap_rejected_without_flag(self):
        with pytest.raises(ValueError):
            SpectralConfig(q=6)
        img = np.random.default_rng(7).random((8, 8))
        (low,), (high,) = compute_maps_batch(img[None], SpectralConfig(q=6, allow_overlap=True))
        assert low.shape == high.shape == (6, 6)
        assert np.abs(high[:4, :4] - low[2:, 2:]).max() < 1e-12


class TestAssemble:
    def test_dims_16x16(self):
        img = np.random.default_rng(7).random((16, 16))
        (low,), (high,) = compute_maps_batch(img[None], SpectralConfig())
        assert low.shape == high.shape == (4, 4)

    def test_single_patch_maps_equal_blocks(self):
        img = np.random.default_rng(8).random((8, 8))
        b, _ = band_projections(8, 8, 8)
        coeffs = b @ img @ b.T
        (low,), (high,) = compute_maps_batch(img[None], SpectralConfig())
        assert np.allclose(low, coeffs[:2, :2], atol=1e-12)
        assert np.allclose(high, coeffs[6:, 6:], atol=1e-12)

    @pytest.mark.parametrize(
        "p, q, shape",
        [(4, 1, (16, 16)), (8, 2, (32, 32)), (8, 3, (32, 32)), (8, 5, (32, 32)), (8, 2, (24, 16))],
    )
    def test_batch_matches_naive_per_patch_reference(self, p, q, shape):
        rng = np.random.default_rng(p * 10 + q)
        imgs = rng.normal(size=(2, *shape))
        low, high = compute_maps_batch(imgs, SpectralConfig(p=p, q=q, allow_overlap=True))
        gh, gw = shape[0] // p, shape[1] // p
        exp_low = np.zeros((2, gh * q, gw * q))
        exp_high = np.zeros((2, gh * q, gw * q))
        for i in range(2):
            for r in range(gh):
                for c in range(gw):
                    coeffs = naive_dct(imgs[i, r * p : (r + 1) * p, c * p : (c + 1) * p])
                    block = np.s_[i, r * q : (r + 1) * q, c * q : (c + 1) * q]
                    exp_low[block] = coeffs[:q, :q]
                    exp_high[block] = coeffs[p - q :, p - q :]
        assert np.abs(low - exp_low).max() <= 1e-12 * np.abs(exp_low).max()
        assert np.abs(high - exp_high).max() <= 1e-12 * np.abs(exp_high).max()

    def test_pipeline_matches_straight_line_reimplementation(self):
        rng = np.random.default_rng(9)
        img = rng.random((32, 32))
        cfg = SpectralConfig(p=8, q=2)
        (low,), (high,) = compute_maps_batch(img[None], cfg)
        exp_low = np.zeros((8, 8))
        exp_high = np.zeros((8, 8))
        for r in range(4):
            for c in range(4):
                coeffs = naive_dct(img[r * 8 : (r + 1) * 8, c * 8 : (c + 1) * 8])
                exp_low[r * 2 : r * 2 + 2, c * 2 : c * 2 + 2] = coeffs[:2, :2]
                exp_high[r * 2 : r * 2 + 2, c * 2 : c * 2 + 2] = coeffs[6:, 6:]
        assert np.abs(low - exp_low).max() < 1e-9
        assert np.abs(high - exp_high).max() < 1e-9

    def test_batch_matches_single(self):
        rng = np.random.default_rng(10)
        imgs = rng.random((5, 16, 16))
        cfg = SpectralConfig()
        low, high = compute_maps_batch(imgs, cfg)
        for i in range(5):
            (single_low,), (single_high,) = compute_maps_batch(imgs[i][None], cfg)
            assert np.array_equal(low[i], single_low)
            assert np.array_equal(high[i], single_high)

    @pytest.mark.parametrize(
        "p, q, shape",
        [(8, 2, (32, 32)), (8, 3, (32, 32)), (8, 5, (32, 32)), (4, 1, (16, 16)), (8, 2, (24, 16))],
    )
    def test_float32_stack_matches_float64_copy_across_blocks(self, p, q, shape):
        # 700 planes span three blocks of the stack loop; widening a float32
        # block is exact, so its maps are bitwise those of the float64 copy.
        stack = np.random.default_rng(19).normal(size=(700, *shape)).astype(np.float32)
        cfg = SpectralConfig(p=p, q=q, allow_overlap=True)
        low, high = compute_maps_batch(stack, cfg)
        assert low.dtype == high.dtype == np.float64
        ref_low, ref_high = compute_maps_batch(stack.astype(np.float64), cfg)
        assert low.tobytes() == ref_low.tobytes() and high.tobytes() == ref_high.tobytes()
        for i in (0, 255, 256, 511, 512, 699):
            (single_low,), (single_high,) = compute_maps_batch(stack[i][None], cfg)
            assert np.array_equal(low[i], single_low) and np.array_equal(high[i], single_high)


def fft_window_reference(img, kind, n):
    # Per-plane FFT filter: shift the spectrum, keep or zero the centered
    # n x n window, shift back and invert.
    h, w = img.shape
    spec = np.fft.fftshift(np.fft.fft2(img))
    rows = slice(h // 2 - n // 2, h // 2 - n // 2 + n)
    cols = slice(w // 2 - n // 2, w // 2 - n // 2 + n)
    mask = np.zeros((h, w), dtype=bool)
    mask[rows, cols] = True
    kept = np.where(mask if kind == "low_pass" else ~mask, spec, 0.0)
    return np.fft.ifft2(np.fft.ifftshift(kept)).real


class TestFftFilter:
    @pytest.mark.parametrize("shape", [(32, 32), (24, 16), (31, 31)])
    def test_matches_fft_reference(self, shape):
        stack = np.random.default_rng(17).normal(size=(5,) + shape)
        scale = np.abs(stack).max()
        for n in (1, 6, 7, 16, min(shape)):
            for kind in ("low_pass", "high_pass"):
                ref = np.stack([fft_window_reference(plane, kind, n) for plane in stack])
                assert np.abs(fft_filter(stack, kind, n) - ref).max() <= 1e-12 * scale
                assert np.abs(fft_filter(stack[0], kind, n) - ref[0]).max() <= 1e-12 * scale

    def test_stack_matches_single_planes_across_blocks(self):
        stack = np.random.default_rng(18).random((700, 32, 32))
        for kind in ("low_pass", "high_pass"):
            out = fft_filter(stack, kind, 7)
            assert out.shape == stack.shape
            assert np.array_equal(out, np.stack([fft_filter(plane, kind, 7) for plane in stack]))

    def test_float32_stack_matches_float64_copy_across_blocks(self):
        stack = np.random.default_rng(20).random((700, 32, 32)).astype(np.float32)
        for kind in ("low_pass", "high_pass"):
            out = fft_filter(stack, kind, 7)
            assert out.dtype == np.float64
            assert out.tobytes() == fft_filter(stack.astype(np.float64), kind, 7).tobytes()
            plane = fft_filter(stack[300], kind, 7)
            assert plane.dtype == np.float64 and np.array_equal(plane, out[300])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [8, 16])
    def test_high_pass_is_input_minus_low_pass_bitwise(self, dtype, n):
        # filter_study forms its high-pass variants from the low pass this way.
        stack = np.random.default_rng(21).normal(size=(300, 32, 32)).astype(dtype)
        high = fft_filter(stack, "high_pass", n)
        assert high.tobytes() == (stack - fft_filter(stack, "low_pass", n)).tobytes()

    @pytest.mark.parametrize("shape", [(16,), (2, 3, 16, 16)])
    def test_wrong_rank_rejected(self, shape):
        with pytest.raises(ValueError):
            fft_filter(np.zeros(shape), "low_pass", 4)

    def test_full_window_low_pass_is_identity(self):
        img = np.random.default_rng(11).random((32, 32))
        assert np.abs(fft_filter(img, "low_pass", 32) - img).max() < 1e-6

    def test_full_window_high_pass_is_zero(self):
        img = np.random.default_rng(12).random((32, 32))
        assert np.abs(fft_filter(img, "high_pass", 32)).max() < 1e-6

    def test_complementarity(self):
        rng = np.random.default_rng(13)
        for n in (1, 7, 15, 16, 31):
            img = rng.random((32, 32))
            total = fft_filter(img, "low_pass", n) + fft_filter(img, "high_pass", n)
            assert np.abs(total - img).max() < 1e-6

    def test_odd_image_side(self):
        img = np.random.default_rng(14).random((31, 31))
        assert np.abs(fft_filter(img, "low_pass", 31) - img).max() < 1e-6

    def test_energy_monotone_in_window(self):
        img = np.random.default_rng(15).random((64, 64))
        e15 = (fft_filter(img, "low_pass", 15) ** 2).sum()
        e7 = (fft_filter(img, "low_pass", 7) ** 2).sum()
        assert e15 > e7

    def test_window_too_large_rejected(self):
        with pytest.raises(ValueError):
            fft_filter(np.zeros((16, 16)), "low_pass", 17)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fft_filter(np.zeros((16, 16)), "band_pass", 4)


class TestHelpers:
    def test_center_crop(self):
        img = np.arange(11 * 13, dtype=float).reshape(11, 13)
        cropped = center_crop(img, 8)
        assert cropped.shape == (8, 8)
        assert np.array_equal(cropped, img[1:9, 2:10])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SpectralConfig(p=8, q=5)
        SpectralConfig(p=8, q=5, allow_overlap=True)
        with pytest.raises(ValueError):
            SpectralConfig(sigma=0.0)
        with pytest.raises(ValueError):
            SpectralConfig(omega_bank=1.5)
