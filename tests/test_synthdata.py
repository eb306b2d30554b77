import hashlib

import numpy as np
import pytest

from freqbal import synthdata
from freqbal.intervention import TrainConfig, train
from freqbal.preference import sample_preference, score_bands
from freqbal.spectral import SpectralConfig, band_projections, compute_maps_batch
from freqbal.synthdata import (
    ModalitySpec,
    dataset_digest,
    generate,
    imbalanced_specs,
    load_dataset,
    lowband_specs,
    modality_blocks,
    save_dataset,
)
from freqbal.tinynet import evaluate


class TestGenerate:
    def test_zero_high_energy_yields_empty_high_band(self):
        specs = (ModalitySpec(low_energy=10.0, high_energy=0.0),)
        ds = generate(specs, n_train=8, n_test=0, seed=0)
        _, high = compute_maps_batch(ds.images[0], SpectralConfig())
        assert np.abs(high).sum(axis=(1, 2)).max() < 1e-6

    def test_band_energies_hit_targets(self):
        specs = (
            ModalitySpec(low_energy=40.0, high_energy=7.0),
            ModalitySpec(low_energy=3.0, high_energy=11.0, signal_band="high"),
        )
        ds = generate(specs, n_train=16, n_test=0, seed=1)
        for i, spec in enumerate(specs):
            low, high = compute_maps_batch(ds.images[i], SpectralConfig())
            low_l1 = np.abs(low).sum(axis=(1, 2))
            high_l1 = np.abs(high).sum(axis=(1, 2))
            assert np.abs(low_l1 - spec.low_energy).max() / spec.low_energy < 0.05
            assert np.abs(high_l1 - spec.high_energy).max() / spec.high_energy < 0.05

    def test_energy_ratio_drives_preference_ratio(self):
        specs = (
            ModalitySpec(low_energy=100.0, high_energy=1.0),
            ModalitySpec(low_energy=1.0, high_energy=1.0),
        )
        ds = generate(specs, n_train=32, n_test=0, seed=2)
        cfg = SpectralConfig()
        s0 = sample_preference(ds.images[0], cfg).mean()
        s1 = sample_preference(ds.images[1], cfg).mean()
        assert s0 / s1 > 10.0

    def test_same_seed_bit_identical(self):
        specs = imbalanced_specs()
        a = generate(specs, n_train=12, n_test=4, seed=3)
        b = generate(specs, n_train=12, n_test=4, seed=3)
        assert np.array_equal(a.labels, b.labels)
        for ia, ib in zip(a.images, b.images):
            assert np.array_equal(ia, ib)

    def test_different_seeds_differ(self):
        specs = imbalanced_specs()
        a = generate(specs, n_train=12, n_test=0, seed=4)
        b = generate(specs, n_train=12, n_test=0, seed=5)
        assert not np.array_equal(a.images[0], b.images[0])

    def test_labels_balanced_and_split_disjoint(self):
        ds = generate(imbalanced_specs(), n_train=40, n_test=8, n_classes=4, seed=6)
        counts = np.bincount(ds.labels, minlength=4)
        assert counts.tolist() == [12, 12, 12, 12]
        assert ds.n_train + ds.n_test == ds.n_samples
        tr, trl = ds.train_split()
        te, tel = ds.test_split()
        assert len(trl) == 40 and len(tel) == 8

    def test_noise_band_has_constant_cell_magnitude(self):
        # A constant-magnitude noise band gives each sample a finite,
        # known ratio score: cells * low_energy / high_energy.
        spec = ModalitySpec(low_energy=40.0, high_energy=7.0, signal_band="low", snr=1.0)
        ds = generate((spec,), n_train=16, n_test=0, seed=12)
        cfg = SpectralConfig()
        low, high = compute_maps_batch(ds.images[0], cfg)
        cells = high[0].size
        assert np.allclose(np.abs(high), spec.high_energy / cells, rtol=1e-9, atol=0.0)
        expected = cells * spec.low_energy / spec.high_energy
        for lo, hi in zip(low, high):
            score = score_bands(lo, hi, "frm", cfg.sigma, 0.9)
            assert abs(score - expected) / expected < 1e-6

    def test_random_stream_matches_gaussian_reference(self):
        # Labels and signal bands are built from the same draws, in the
        # same order, as a generator whose noise band is an unmodified
        # Gaussian draw; the noise band keeps that draw's signs.
        specs = imbalanced_specs()
        n_train, n_test, n_classes, seed = 12, 4, 4, 13
        ds = generate(specs, n_train=n_train, n_test=n_test, n_classes=n_classes, seed=seed)
        n = n_train + n_test
        gh = gw = 32 // 8  # default dims (32, 32) and patch side p = 8
        q = 2
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.arange(n) % n_classes)
        assert np.array_equal(ds.labels, labels)

        def as_map(blocks):
            return blocks.swapaxes(2, 3).reshape(n, gh * q, gw * q)

        for i, spec in enumerate(specs):
            templates = rng.normal(size=(n_classes, gh, gw, q, q))
            signal = spec.snr * templates[labels] + rng.normal(size=(n, gh, gw, q, q))
            noise = rng.normal(size=(n, gh, gw, q, q))
            target = spec.low_energy if spec.signal_band == "low" else spec.high_energy
            signal *= target / np.abs(signal).sum(axis=(1, 2, 3, 4), keepdims=True)
            low, high = compute_maps_batch(ds.images[i], SpectralConfig())
            got_signal, got_noise = (low, high) if spec.signal_band == "low" else (high, low)
            assert np.abs(got_signal - as_map(signal)).max() <= 1e-12
            assert np.array_equal(np.sign(got_noise), np.sign(as_map(noise)))

    @pytest.mark.parametrize("specs", [imbalanced_specs(), lowband_specs()])
    def test_synthesis_is_transpose_of_analysis(self, specs):
        # Images equal the inverse patch DCT of zero-filled coefficient
        # blocks built from the same draws, and the analysis recovers the
        # rescaled band blocks from them.
        n_train, n_test, n_classes, seed = 12, 4, 4, 14
        ds = generate(specs, n_train=n_train, n_test=n_test, n_classes=n_classes, seed=seed)
        n, p, q = n_train + n_test, 8, 2
        gh = gw = 32 // p  # default dims (32, 32)
        b, _ = band_projections(p, p, p)
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.arange(n) % n_classes)

        def rescale(blocks, target):
            if target == 0:
                return np.zeros_like(blocks)
            return blocks * (target / np.abs(blocks).sum(axis=(1, 2, 3, 4), keepdims=True))

        def as_map(blocks):
            return blocks.swapaxes(2, 3).reshape(n, gh * q, gw * q)

        for i, spec in enumerate(specs):
            templates = rng.normal(size=(n_classes, gh, gw, q, q))
            signal = spec.snr * templates[labels] + rng.normal(size=(n, gh, gw, q, q))
            noise = np.copysign(1.0, rng.normal(size=(n, gh, gw, q, q)))
            low, high = (signal, noise) if spec.signal_band == "low" else (noise, signal)
            low = rescale(low, spec.low_energy)
            high = rescale(high, spec.high_energy)
            coeffs = np.zeros((n, gh, gw, p, p))
            coeffs[..., :q, :q] = low
            coeffs[..., p - q :, p - q :] = high
            expected = (b.T @ coeffs @ b).swapaxes(2, 3).reshape(n, 32, 32)
            img = ds.images[i]
            assert np.abs(img - expected).max() <= 1e-12 * np.abs(expected).max()
            got_low, got_high = compute_maps_batch(img, SpectralConfig(p=p, q=q))
            assert np.abs(got_low - as_map(low)).max() <= 1e-12 * np.abs(low).max()
            assert np.abs(got_high - as_map(high)).max() <= 1e-12 * np.abs(high).max()

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    def test_blockwise_synthesis_matches_one_shot_formula(self, n):
        # The reference builds each modality's whole stack in one expression
        # from the same draws; the generator works in blocks of planes.
        specs, n_classes, seed, p, q = imbalanced_specs(), 4, 40 + n, 8, 2
        ds = generate(specs, n_train=n, n_test=0, n_classes=n_classes, seed=seed)
        gh = gw = 32 // p  # default dims (32, 32)
        low_p, high_p = band_projections(32, p, q)
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.arange(n) % n_classes)

        def as_map(blocks, target):
            blocks = blocks * (target / np.abs(blocks).sum(axis=(1, 2, 3, 4), keepdims=True))
            return blocks.swapaxes(2, 3).reshape(n, gh * q, gw * q)

        for i, spec in enumerate(specs):
            templates = rng.normal(size=(n_classes, gh, gw, q, q))
            signal = spec.snr * templates[labels] + rng.normal(size=(n, gh, gw, q, q))
            noise = np.copysign(1.0, rng.normal(size=(n, gh, gw, q, q)))
            low, high = (signal, noise) if spec.signal_band == "low" else (noise, signal)
            low, high = as_map(low, spec.low_energy), as_map(high, spec.high_energy)
            expected = low_p.T @ low @ low_p + high_p.T @ high @ high_p
            assert ds.images[i].dtype == np.float64
            assert ds.images[i].tobytes() == expected.tobytes()

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            generate(imbalanced_specs(), n_train=4, n_test=0, dims=(30, 32), seed=0)

    def test_both_energies_zero_rejected(self):
        with pytest.raises(ValueError):
            ModalitySpec(low_energy=0.0, high_energy=0.0)

    @pytest.mark.parametrize("field", ["low_energy", "high_energy", "snr"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_spec_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ModalitySpec(**{field: value})


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        ds = generate(imbalanced_specs(), n_train=10, n_test=6, seed=10)
        save_dataset(tmp_path / "ds", ds)
        back = load_dataset(tmp_path / "ds")
        assert back.n_train == 10 and back.n_test == 6
        assert back.n_classes == ds.n_classes and back.seed == ds.seed
        assert back.specs == ds.specs
        assert np.array_equal(back.labels, ds.labels)
        for a, b in zip(back.images, ds.images):
            assert a.shape == b.shape
            assert np.abs(a - b).max() < 1e-5  # float32 storage

    def test_loaded_images_are_float32_views_of_one_block(self, tmp_path):
        ds = generate(imbalanced_specs(), n_train=10, n_test=6, dims=(16, 16), seed=12)
        save_dataset(tmp_path / "ds", ds)
        back = load_dataset(tmp_path / "ds")
        block = back.images[0].base
        assert block.shape == (3, 16, 16 * 16) and block.flags.c_contiguous
        for i, (a, b) in enumerate(zip(back.images, ds.images)):
            assert a.dtype == np.float32 and a.base is block
            assert np.shares_memory(a, block[i])
            assert a.tobytes() == b.astype(np.float32).tobytes()
        assert back.labels.dtype == np.int64

    def test_manifest_drives_shapes(self, tmp_path):
        ds = generate(imbalanced_specs(), n_train=6, n_test=2, dims=(16, 16), seed=11)
        save_dataset(tmp_path / "ds", ds)
        back = load_dataset(tmp_path / "ds")
        assert back.dims == (16, 16)


    def test_modality_blocks_stream_the_loaded_stacks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(synthdata, "_BLOCK", 4)
        ds = generate(imbalanced_specs(), n_train=7, n_test=3, dims=(16, 16), seed=13)
        save_dataset(tmp_path / "ds", ds)
        loaded = load_dataset(tmp_path / "ds")
        modalities = modality_blocks(tmp_path / "ds")
        assert len(modalities) == 3
        for i, (path, blocks) in enumerate(modalities):
            assert path == tmp_path / "ds" / f"mod{i}.f32"
            copies = [block.copy() for block in blocks]
            assert [b.shape for b in copies] == [(4, 16, 16), (4, 16, 16), (2, 16, 16)]
            assert np.concatenate(copies).tobytes() == loaded.images[i].tobytes()

    def test_digest_is_sha256_of_the_files_in_any_chunk_size(self, tmp_path, monkeypatch):
        ds = generate(imbalanced_specs(), n_train=6, n_test=2, dims=(16, 16), seed=14)
        src = tmp_path / "ds"
        save_dataset(src, ds)
        names = ["dataset.json", "labels.f32", "mod0.f32", "mod1.f32", "mod2.f32"]
        expected = hashlib.sha256(b"".join((src / name).read_bytes() for name in names)).hexdigest()
        assert dataset_digest(src) == expected
        monkeypatch.setattr(synthdata, "_DIGEST_CHUNK", 100)
        assert (src / "mod0.f32").stat().st_size > 100
        assert dataset_digest(src) == expected


class TestDominance:
    def test_low_heavy_modality_degrades_least_without_intervention(self):
        # The preset's low-band-dominant branch should end closest to its
        # full-modality accuracy when trained plain, averaged over seeds.
        uni = []
        for seed in range(3):
            ds = generate(imbalanced_specs(), seed=1000 + seed)
            cfg = TrainConfig(mode="none", seed=seed)
            net_cfg, params, _ = train(cfg, ds)
            te_in, te_lab = ds.test_split()
            uni.append(
                [
                    evaluate(net_cfg, params, te_in, te_lab, [j == i for j in range(3)])
                    for i in range(3)
                ]
            )
        means = np.mean(uni, axis=0)
        scores = [
            sample_preference(img[:64], SpectralConfig()).mean()
            for img in generate(imbalanced_specs(), seed=1000).images
        ]
        assert int(np.argmax(scores)) == 0
        assert int(np.argmax(means)) == 0
