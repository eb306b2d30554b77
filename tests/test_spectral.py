import numpy as np
import pytest
from memtrace import traced_peak

from freqbal import spectral
from freqbal.spectral import (
    SpectralConfig,
    band_projections,
    compute_maps_batch,
    fft_filter,
    high_pass,
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
        # 700 planes span eleven blocks of the stack loop; widening a float32
        # block is exact, so its maps are bitwise those of the float64 copy.
        stack = np.random.default_rng(19).normal(size=(700, *shape)).astype(np.float32)
        cfg = SpectralConfig(p=p, q=q, allow_overlap=True)
        low, high = compute_maps_batch(stack, cfg)
        assert low.dtype == high.dtype == np.float64
        ref_low, ref_high = compute_maps_batch(stack.astype(np.float64), cfg)
        assert low.tobytes() == ref_low.tobytes() and high.tobytes() == ref_high.tobytes()
        for i in (0, 63, 64, 255, 256, 699):
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


def filtered(img, kind, n):
    # One kind of filter as the CLI and the bench form it: the low pass, or
    # the high pass written into it.
    low = fft_filter(img, n)
    return low if kind == "low_pass" else high_pass(img, low)


class TestFftFilter:
    @pytest.mark.parametrize("shape", [(32, 32), (24, 16), (31, 31)])
    def test_matches_fft_reference(self, shape):
        stack = np.random.default_rng(17).normal(size=(5,) + shape)
        scale = np.abs(stack).max()
        for n in (1, 6, 7, 16, min(shape)):
            for kind in ("low_pass", "high_pass"):
                ref = np.stack([fft_window_reference(plane, kind, n) for plane in stack])
                assert np.abs(filtered(stack, kind, n) - ref).max() <= 1e-12 * scale
                assert np.abs(filtered(stack[0][None], kind, n)[0] - ref[0]).max() <= 1e-12 * scale

    def test_stack_matches_single_planes_across_blocks(self):
        stack = np.random.default_rng(18).random((700, 32, 32))
        for kind in ("low_pass", "high_pass"):
            out = filtered(stack, kind, 7)
            assert out.shape == stack.shape
            assert np.array_equal(out, np.stack([filtered(plane[None], kind, 7)[0] for plane in stack]))

    def test_float32_stack_matches_float64_copy_across_blocks(self):
        # Each float32 block is widened exactly, so its low pass is the
        # float64 copy's, rounded once as it is stored.
        stack = np.random.default_rng(20).random((700, 32, 32)).astype(np.float32)
        wide = fft_filter(stack.astype(np.float64), 7)
        assert wide.dtype == np.float64
        out = fft_filter(stack, 7)
        assert out.dtype == np.float32
        assert out.tobytes() == wide.astype(np.float32).tobytes()
        plane = fft_filter(stack[300][None], 7)[0]
        assert plane.dtype == np.float32 and np.array_equal(plane, out[300])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [8, 16])
    def test_high_pass_is_input_minus_low_pass_bitwise(self, dtype, n):
        # In the low pass's own array, so the stack is filtered once.
        stack = np.random.default_rng(21).normal(size=(300, 32, 32)).astype(dtype)
        before = stack.copy()
        low = fft_filter(stack, n)
        expected = stack - low
        high = high_pass(stack, low)
        assert high is low and high.dtype == dtype
        assert high.tobytes() == expected.tobytes()
        assert stack.tobytes() == before.tobytes()

    @pytest.mark.parametrize("kind", ["low_pass", "high_pass"])
    def test_float32_out_holds_the_float64_result_rounded_once(self, kind):
        # A float32 stack's low pass is its float64 copy's rounded once, and
        # its high pass is the stack minus that rounded low pass, in float32.
        stack = np.random.default_rng(22).normal(size=(700, 32, 32)).astype(np.float32)
        low = fft_filter(stack.astype(np.float64), 7).astype(np.float32)
        expected = low if kind == "low_pass" else stack - low
        out = filtered(stack, kind, 7)
        assert out.dtype == np.float32 and out.tobytes() == expected.tobytes()
        plane = filtered(stack[300][None], kind, 7)[0]
        assert plane.dtype == np.float32 and np.array_equal(plane, out[300])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kind", ["low_pass", "high_pass"])
    def test_stack_allocates_one_block_beyond_its_result(self, kind, dtype):
        # Blocks of 64 planes keep the widened block and its products near
        # 2.6 MB; 256-plane blocks took 10.5 MB on top of the result. A
        # float32 result adds the 0.5 MB float64 block it is filled from,
        # and a high pass is written into its low pass.
        stack = np.random.default_rng(23).random((2500, 32, 32)).astype(dtype)
        filtered(stack[:1], kind, 16)  # builds the cached operators
        result, peak = traced_peak(lambda: filtered(stack, kind, 16))
        assert result.dtype == dtype
        assert peak < result.nbytes + (3e6 if dtype == np.float64 else 3.5e6)

    @pytest.mark.parametrize("block", [16, 100, 256])
    def test_results_are_bitwise_the_same_for_any_block_size(self, block, monkeypatch):
        stack = np.random.default_rng(24).normal(size=(300, 32, 32)).astype(np.float32)
        cfg = SpectralConfig()
        expected = [*compute_maps_batch(stack, cfg), fft_filter(stack, 9),
                    fft_filter(stack.astype(np.float64), 9), filtered(stack, "high_pass", 9)]
        monkeypatch.setattr(spectral, "_BLOCK", block)
        got = [*compute_maps_batch(stack, cfg), fft_filter(stack, 9),
               fft_filter(stack.astype(np.float64), 9), filtered(stack, "high_pass", 9)]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]

    def test_row_operators_are_cached_read_only(self):
        for operator, key in ((spectral.band_projections, (32, 8, 2)), (spectral._window_operator, (32, 7))):
            both = spectral._stacked_rows(operator, *key)
            assert both is spectral._stacked_rows(operator, *key)
            assert not both.flags.writeable
            assert np.array_equal(both, np.concatenate(operator(*key)))

    @pytest.mark.parametrize("shape", [(16,), (2, 3, 16, 16), (16, 16)])
    def test_wrong_rank_rejected(self, shape):
        with pytest.raises(ValueError):
            fft_filter(np.zeros(shape), 4)

    def test_full_window_low_pass_is_identity(self):
        img = np.random.default_rng(11).random((32, 32))
        assert np.abs(fft_filter(img[None], 32)[0] - img).max() < 1e-6

    def test_full_window_high_pass_is_zero(self):
        img = np.random.default_rng(12).random((32, 32))
        assert np.abs(filtered(img[None], "high_pass", 32)[0]).max() < 1e-6

    def test_complementarity(self):
        rng = np.random.default_rng(13)
        for n in (1, 7, 15, 16, 31):
            img = rng.random((32, 32))
            total = fft_filter(img[None], n)[0] + filtered(img[None], "high_pass", n)[0]
            assert np.abs(total - img).max() < 1e-6

    def test_odd_image_side(self):
        img = np.random.default_rng(14).random((31, 31))
        assert np.abs(fft_filter(img[None], 31)[0] - img).max() < 1e-6

    def test_energy_monotone_in_window(self):
        img = np.random.default_rng(15).random((64, 64))
        e15 = (fft_filter(img[None], 15)[0] ** 2).sum()
        e7 = (fft_filter(img[None], 7)[0] ** 2).sum()
        assert e15 > e7

    def test_window_too_large_rejected(self):
        with pytest.raises(ValueError):
            fft_filter(np.zeros((1, 16, 16)), 17)


class TestHelpers:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SpectralConfig(p=8, q=5)
        SpectralConfig(p=8, q=5, allow_overlap=True)
        with pytest.raises(ValueError):
            SpectralConfig(sigma=0.0)
