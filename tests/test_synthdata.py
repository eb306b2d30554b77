import hashlib

import numpy as np
import pytest
from memtrace import traced_peak
from runs import preset_run

from freqbal import synthdata, tensorio
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
    save_generated,
    write_dataset,
)

# Default dims (32, 32), patch side p = 8 and block side q = 2: a 4 x 4 grid
# of patches.
P, Q, GRID = 8, 2, 4


def replay_draws(specs, n, n_classes, seed):
    """generate's random stream: the labels, then per modality its signal
    band draw (class templates blended with noise at its snr) and the
    Gaussian draw whose signs its noise band keeps, as (n, 4, 4, 2, 2)
    blocks."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % n_classes)
    draws = []
    for spec in specs:
        templates = rng.normal(size=(n_classes, GRID, GRID, Q, Q))
        signal = spec.snr * templates[labels] + rng.normal(size=(n, GRID, GRID, Q, Q))
        draws.append((signal, rng.normal(size=(n, GRID, GRID, Q, Q))))
    return labels, draws


def rescale(blocks, target):
    if target == 0:
        return np.zeros_like(blocks)
    return blocks * (target / np.abs(blocks).sum(axis=(1, 2, 3, 4), keepdims=True))


def as_map(blocks):
    return blocks.swapaxes(2, 3).reshape(len(blocks), GRID * Q, GRID * Q)


def construction(specs, n, n_classes, seed):
    """Each modality's float64 pixels from generate's draws, by the one-shot
    formula low_p.T @ low @ low_p + high_p.T @ high @ high_p of its rescaled
    band maps."""
    low_p, high_p = band_projections(32, P, Q)
    _, draws = replay_draws(specs, n, n_classes, seed)
    built = []
    for spec, (signal, gauss) in zip(specs, draws):
        noise = np.copysign(1.0, gauss)
        low, high = (signal, noise) if spec.signal_band == "low" else (noise, signal)
        low, high = as_map(rescale(low, spec.low_energy)), as_map(rescale(high, spec.high_energy))
        built.append(low_p.T @ low @ low_p + high_p.T @ high @ high_p)
    return built


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
        [pixels] = construction((spec,), n=16, n_classes=4, seed=12)
        assert ds.images[0].tobytes() == pixels.astype(np.float32).tobytes()
        cfg = SpectralConfig()
        low, high = compute_maps_batch(pixels, cfg)
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
        labels, draws = replay_draws(specs, n, n_classes, seed)
        assert np.array_equal(ds.labels, labels)
        built = construction(specs, n, n_classes, seed)
        for i, (spec, (signal, noise), pixels) in enumerate(zip(specs, draws, built)):
            assert ds.images[i].tobytes() == pixels.astype(np.float32).tobytes()
            target = spec.low_energy if spec.signal_band == "low" else spec.high_energy
            signal = as_map(rescale(signal, target))
            low, high = compute_maps_batch(pixels, SpectralConfig())
            got_signal = low if spec.signal_band == "low" else high
            assert np.abs(got_signal - signal).max() <= 1e-12
            low, high = compute_maps_batch(ds.images[i], SpectralConfig())
            got_noise = high if spec.signal_band == "low" else low
            assert np.array_equal(np.sign(got_noise), np.sign(as_map(noise)))

    @pytest.mark.parametrize("specs", [imbalanced_specs(), lowband_specs()])
    def test_synthesis_is_transpose_of_analysis(self, specs):
        # The generator's pixels equal the inverse patch DCT of zero-filled
        # coefficient blocks built from the same draws, and the analysis
        # recovers the rescaled band blocks from them.
        n_train, n_test, n_classes, seed = 12, 4, 4, 14
        ds = generate(specs, n_train=n_train, n_test=n_test, n_classes=n_classes, seed=seed)
        n = n_train + n_test
        b, _ = band_projections(P, P, P)
        _, draws = replay_draws(specs, n, n_classes, seed)
        built = construction(specs, n, n_classes, seed)
        for i, (spec, (signal, noise), pixels) in enumerate(zip(specs, draws, built)):
            assert ds.images[i].tobytes() == pixels.astype(np.float32).tobytes()
            noise = np.copysign(1.0, noise)
            low, high = (signal, noise) if spec.signal_band == "low" else (noise, signal)
            low = rescale(low, spec.low_energy)
            high = rescale(high, spec.high_energy)
            coeffs = np.zeros((n, GRID, GRID, P, P))
            coeffs[..., :Q, :Q] = low
            coeffs[..., P - Q :, P - Q :] = high
            expected = (b.T @ coeffs @ b).swapaxes(2, 3).reshape(n, 32, 32)
            assert np.abs(pixels - expected).max() <= 1e-12 * np.abs(expected).max()
            got_low, got_high = compute_maps_batch(pixels, SpectralConfig(p=P, q=Q))
            assert np.abs(got_low - as_map(low)).max() <= 1e-12 * np.abs(low).max()
            assert np.abs(got_high - as_map(high)).max() <= 1e-12 * np.abs(high).max()

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    def test_blockwise_synthesis_matches_one_shot_formula(self, n):
        # The reference builds each modality's whole stack in one expression
        # from the same draws; the generator works in blocks of planes and
        # rounds each block once, as it stores it.
        specs, n_classes, seed = imbalanced_specs(), 4, 40 + n
        ds = generate(specs, n_train=n, n_test=0, n_classes=n_classes, seed=seed)
        for image, pixels in zip(ds.images, construction(specs, n, n_classes, seed)):
            assert image.dtype == np.float32 and image.shape == (n, 32, 32)
            assert image.tobytes() == pixels.astype(np.float32).tobytes()

    def test_peak_memory_stays_near_the_float32_result(self):
        # Only the float32 block is whole-stack: the draws are formed in
        # place, the bands go straight into their band maps, and each block
        # of planes is computed into buffers allocated once per call and
        # rounded as it is stored, so no float64 stack is held.
        ds, peak = traced_peak(lambda: generate(imbalanced_specs(), 2000, 500))
        float32_bytes = sum(np.dtype(np.float32).itemsize * stack.size for stack in ds.images)
        assert peak < 1.3 * float32_bytes

    def test_images_are_float32_views_of_one_block(self):
        ds = generate(imbalanced_specs(), n_train=10, n_test=6, dims=(16, 16), seed=12)
        block = ds.images[0].base
        assert block.shape == (3, 16, 16, 16) and block.dtype == np.float32
        assert block.flags.c_contiguous
        for i, stack in enumerate(ds.images):
            assert stack.base is block and np.shares_memory(stack, block[i])
            assert stack.shape == (16, 16, 16) and stack.flags.c_contiguous

    @pytest.mark.parametrize("n_classes", [1, 0, -2])
    def test_fewer_than_two_classes_rejected(self, n_classes):
        with pytest.raises(ValueError, match=f"n_classes must be at least 2, got {n_classes}"):
            generate(imbalanced_specs(), n_train=8, n_test=0, n_classes=n_classes, seed=0)

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
        args = dict(n_train=10, n_test=6, seed=10)
        ds = generate(imbalanced_specs(), **args)
        save_generated(tmp_path / "ds", imbalanced_specs(), **args)
        back = load_dataset(tmp_path / "ds")
        assert back.n_train == 10 and back.n_test == 6
        assert back.n_classes == ds.n_classes and back.seed == ds.seed
        assert back.specs == ds.specs
        assert np.array_equal(back.labels, ds.labels)
        for a, b in zip(back.images, ds.images):
            assert a.shape == b.shape
            assert np.abs(a - b).max() < 1e-5  # float32 storage

    @pytest.mark.parametrize("dims", [(32, 32), (16, 24)])
    @pytest.mark.parametrize("preset", [imbalanced_specs, lowband_specs])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    def test_save_generated_writes_the_bytes_of_write_dataset(self, n, preset, dims, tmp_path):
        n_train = n - n // 4
        args = dict(n_train=n_train, n_test=n - n_train, n_classes=3, dims=dims, seed=50 + n)
        ds = generate(preset(), **args)
        write_dataset(
            tmp_path / "whole", ([stack] for stack in ds.images), dims=ds.dims, labels=ds.labels,
            n_train=ds.n_train, n_classes=ds.n_classes, specs=ds.specs, seed=ds.seed,
        )
        save_generated(tmp_path / "streamed", preset(), **args)
        names = ["dataset.json", "labels.f32", "mod0.f32", "mod1.f32", "mod2.f32"]
        assert sorted(p.name for p in (tmp_path / "streamed").iterdir()) == names
        for name in names:
            streamed, whole = (tmp_path / side / name for side in ("streamed", "whole"))
            assert streamed.read_bytes() == whole.read_bytes(), name

    def test_each_modality_renders_from_band_maps_of_its_own(self):
        # Modality 1 draws, and renders a block, while modality 0 still has
        # blocks left; neither disturbs the other's planes.
        specs, labels, rng = synthdata._prepare(imbalanced_specs(), 300, 0, 3, (16, 16), 4)
        stacks = np.full((2, 300, 16, 16), np.nan, dtype=np.float32)
        first = synthdata._planes(specs[0], labels, 3, (16, 16), rng, lambda lo, hi: stacks[0, lo:hi])
        next(first)
        second = synthdata._planes(specs[1], labels, 3, (16, 16), rng, lambda lo, hi: stacks[1, lo:hi])
        next(second)
        for _ in first:
            pass
        for _ in second:
            pass
        ds = generate(imbalanced_specs(), n_train=300, n_test=0, n_classes=3, dims=(16, 16), seed=4)
        for stack, image in zip(stacks, ds.images):
            assert stack.tobytes() == image.tobytes()

    def test_save_generated_checks_before_it_makes_the_directory(self, tmp_path):
        with pytest.raises(ValueError, match="not divisible"):
            save_generated(tmp_path / "ds", imbalanced_specs(), n_train=4, n_test=0, dims=(30, 32))
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("writer", ["write_dataset", "save_generated"])
    def test_failed_write_leaves_no_manifest(self, writer, tmp_path, monkeypatch):
        # A rewrite that stops after its first modality file must not leave
        # the old manifest to vouch for a mix of new and old files.
        args = dict(n_train=10, n_test=6, dims=(16, 16))
        src = tmp_path / "ds"
        save_generated(src, imbalanced_specs(), seed=1, **args)
        opened = []

        def failing_open(path, mode="r", *rest, **kwargs):
            if "w" in mode:
                opened.append(path)
                if len(opened) == 2:
                    raise OSError(f"{path}: simulated write failure")
            return open(path, mode, *rest, **kwargs)

        monkeypatch.setattr(tensorio, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="simulated"):
            if writer == "write_dataset":
                ds = generate(imbalanced_specs(), seed=2, **args)
                write_dataset(
                    src, ([stack] for stack in ds.images), dims=ds.dims, labels=ds.labels,
                    n_train=ds.n_train, n_classes=ds.n_classes, specs=ds.specs, seed=ds.seed,
                )
            else:
                save_generated(src, imbalanced_specs(), seed=2, **args)
        monkeypatch.undo()
        assert opened == [src / "mod0.f32", src / "mod1.f32"]
        assert not (src / "dataset.json").exists()
        with pytest.raises(FileNotFoundError):
            load_dataset(src)

    @pytest.mark.parametrize(
        "split, lo, hi", [(None, 0, 16), ("train", 0, 10), ("test", 10, 16)], ids=["all", "train", "test"]
    )
    def test_loaded_images_are_separate_float32_arrays_of_the_file_bytes(self, split, lo, hi, tmp_path):
        save_generated(tmp_path / "ds", imbalanced_specs(), n_train=10, n_test=6, dims=(16, 16), seed=12)
        back = load_dataset(tmp_path / "ds", split)
        for i, stack in enumerate(back.images):
            assert stack.dtype == np.float32 and stack.shape == (hi - lo, 16, 16)
            assert stack.flags.c_contiguous
            assert not any(np.shares_memory(stack, other) for other in back.images[:i])
            raw = (tmp_path / "ds" / f"mod{i}.f32").read_bytes()[8:]
            assert stack.tobytes() == raw[lo * 1024 : hi * 1024]
        assert back.labels.dtype == np.int64

    def test_manifest_drives_shapes(self, tmp_path):
        save_generated(tmp_path / "ds", imbalanced_specs(), n_train=6, n_test=2, dims=(16, 16), seed=11)
        back = load_dataset(tmp_path / "ds")
        assert back.dims == (16, 16)


    def test_modality_blocks_stream_the_loaded_stacks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(synthdata, "_BLOCK", 4)
        save_generated(tmp_path / "ds", imbalanced_specs(), n_train=7, n_test=3, dims=(16, 16), seed=13)
        loaded = load_dataset(tmp_path / "ds")
        dims, modalities = modality_blocks(tmp_path / "ds")
        assert dims == (16, 16)
        assert len(modalities) == 3
        for i, (path, blocks) in enumerate(modalities):
            assert path == tmp_path / "ds" / f"mod{i}.f32"
            copies = [block.copy() for block in blocks]
            assert [b.shape for b in copies] == [(4, 16, 16), (4, 16, 16), (2, 16, 16)]
            assert np.concatenate(copies).tobytes() == loaded.images[i].tobytes()

    def test_digest_is_sha256_of_the_files_in_any_chunk_size(self, tmp_path, monkeypatch):
        src = tmp_path / "ds"
        save_generated(src, imbalanced_specs(), n_train=6, n_test=2, dims=(16, 16), seed=14)
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
        solo_masks = [tuple(j == i for j in range(3)) for i in range(3)]
        uni = [[preset_run("none", seed).accs[mask] for mask in solo_masks] for seed in range(3)]
        means = np.mean(uni, axis=0)
        scores = [
            sample_preference(img[:64], SpectralConfig()).mean()
            for img in generate(imbalanced_specs(), seed=1000).images
        ]
        assert int(np.argmax(scores)) == 0
        assert int(np.argmax(means)) == 0
