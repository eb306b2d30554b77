"""Deterministic multimodal datasets with controlled band energies.

Each modality is built directly in patch-DCT space. One band (the signal
band) carries a per-class coefficient template blended with per-sample
Gaussian noise at the configured snr; the other band carries noise of
random sign at one constant cell magnitude. Both bands are rescaled per
sample so their image-level L1 mass hits the configured targets exactly,
and pixels are the inverse patch DCT of the two corners: the transposes of
the band projections that the spectral pipeline applies. Running that
pipeline over a generated image therefore recovers the target band
energies up to float rounding, which makes the preference ordering of a
generated dataset known by construction.

The noise band is not Gaussian because the frequency ratio metric divides
each low-band cell by its mirrored high-band cell: with Gaussian high-band
cells each ratio is Cauchy-tailed, so a modality's score has no mean and a
batch cannot estimate it. At a constant high-band cell magnitude the score
of a low-signal modality is exactly cells * low_energy / high_energy (up to
the stabilizer). The signs come from a Gaussian draw, so the generator
consumes the same random stream as a Gaussian noise band would.
"""

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensorio
from .spectral import _BLOCK, band_projections


@dataclass(frozen=True)
class ModalitySpec:
    """Band-energy targets and class-signal placement for one modality.

    low_energy / high_energy: target L1 mass of each band per image.
    signal_band: which band carries the class template ("low" or "high").
    The other band is noise: random signs at the constant cell magnitude
    energy / cells, since Gaussian noise there would leave the ratio score
    with no mean.
    snr: template-to-noise blend inside the signal band; 0 means the
    signal band is pure Gaussian noise.
    All three numbers must be finite, so generated pixels are finite.
    """

    low_energy: float = 1.0
    high_energy: float = 1.0
    signal_band: str = "low"
    snr: float = 1.0

    def __post_init__(self):
        for name in ("low_energy", "high_energy", "snr"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.low_energy < 0 or self.high_energy < 0:
            raise ValueError("band energies must be >= 0")
        if self.low_energy + self.high_energy <= 0:
            raise ValueError("at least one band needs positive energy")
        if self.signal_band not in ("low", "high"):
            raise ValueError(f"signal_band must be 'low' or 'high', got {self.signal_band!r}")
        if self.snr < 0:
            raise ValueError(f"snr must be >= 0, got {self.snr}")


@dataclass
class SynthDataset:
    """Per-modality image stacks with shared labels and a fixed split.

    The first n_train samples are the training split; the rest are test.
    Pixels are finite: generated ones by construction from finite specs,
    loaded ones because tensorio.read_raw checks every value it reads.
    Generated stacks are float64. Loaded stacks are float32, the exact
    values in their files, as views of one contiguous block. Consumers
    widen to float64 before any arithmetic (per block of planes, or once
    for a split), which is exact, so results do not depend on the stacks'
    dtype.
    """

    images: list
    labels: np.ndarray
    n_train: int
    n_classes: int
    specs: tuple
    seed: int

    @property
    def n_modalities(self) -> int:
        return len(self.images)

    @property
    def n_samples(self) -> int:
        return len(self.labels)

    @property
    def n_test(self) -> int:
        return self.n_samples - self.n_train

    @property
    def dims(self):
        return self.images[0].shape[1:]

    def train_split(self):
        return [m[: self.n_train] for m in self.images], self.labels[: self.n_train]

    def test_split(self):
        return [m[self.n_train :] for m in self.images], self.labels[self.n_train :]


def generate(
    specs,
    n_train: int = 2000,
    n_test: int = 500,
    n_classes: int = 4,
    dims=(32, 32),
    seed: int = 0,
    p: int = 8,
    q: int = 2,
) -> SynthDataset:
    """Build a dataset; deterministic for a given seed.

    dims must be divisible by the generation patch side p, and the two
    q x q corners of a patch must not overlap. Labels are exactly
    class-balanced and shared across modalities.

    Each modality's pixels, low_h.T @ low @ low_w + high_h.T @ high @ high_w
    for its band maps, are computed in blocks of planes straight into one
    preallocated float64 stack, so the only whole-stack array made per
    modality is the result; each plane is bitwise the one-shot formula's.
    """
    specs = tuple(specs)
    if not specs:
        raise ValueError("need at least one modality spec")
    h, w = dims
    if h % p or w % p:
        raise ValueError(f"dims {dims} not divisible by patch side {p}")
    if not 1 <= q <= p // 2:
        raise ValueError(f"block side q={q} must lie in [1, {p // 2}] for patch side {p}")
    n = n_train + n_test
    if n < 1:
        raise ValueError("need at least one sample")
    gh, gw = h // p, w // p
    low_h, high_h = band_projections(h, p, q)
    low_w, high_w = band_projections(w, p, q)
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % n_classes)

    images = []
    for spec in specs:
        templates = rng.normal(size=(n_classes, gh, gw, q, q))
        signal = spec.snr * templates[labels] + rng.normal(size=(n, gh, gw, q, q))
        noise = np.copysign(1.0, rng.normal(size=(n, gh, gw, q, q)))
        if spec.signal_band == "low":
            low = _rescale_band(signal, spec.low_energy)
            high = _rescale_band(noise, spec.high_energy)
        else:
            low = _rescale_band(noise, spec.low_energy)
            high = _rescale_band(signal, spec.high_energy)
        low = low.swapaxes(2, 3).reshape(n, gh * q, gw * q)
        high = high.swapaxes(2, 3).reshape(n, gh * q, gw * q)
        stack = np.empty((n, h, w))
        for start in range(0, n, _BLOCK):
            block = slice(start, start + _BLOCK)
            np.matmul(low_h.T @ low[block], low_w, out=stack[block])
            stack[block] += high_h.T @ high[block] @ high_w
        images.append(stack)

    return SynthDataset(
        images=images,
        labels=labels,
        n_train=n_train,
        n_classes=n_classes,
        specs=specs,
        seed=seed,
    )


def _rescale_band(blocks, target: float) -> np.ndarray:
    if target == 0:
        return np.zeros_like(blocks)
    mass = np.abs(blocks).sum(axis=(1, 2, 3, 4), keepdims=True)
    if np.any(mass == 0):
        raise ValueError("degenerate band draw; cannot hit a positive energy target")
    return blocks * (target / mass)


def imbalanced_specs():
    """The reference imbalanced preset: low-band masses 100:10:1.

    Modality 0 holds its class signal in the dominant low band, so it
    trains fastest, collapses the shared error signal early, and scores
    the highest preference value. Modality 1 carries a faint high-band
    signal: slow to learn, it stays under-trained unless training is
    rebalanced, and its mid-range relative ratio is where the preference
    variants disagree most about how much to boost it. Modality 2 is a
    cleanly learnable mid-strength branch.
    """
    return (
        ModalitySpec(low_energy=100.0, high_energy=2.0, signal_band="low", snr=0.5),
        ModalitySpec(low_energy=10.0, high_energy=28.0, signal_band="high", snr=0.6),
        ModalitySpec(low_energy=1.0, high_energy=25.0, signal_band="high", snr=2.0),
    )


def lowband_specs():
    """A symmetric preset with all class signal in the low bands."""
    return (
        ModalitySpec(low_energy=30.0, high_energy=3.0, signal_band="low", snr=2.0),
        ModalitySpec(low_energy=30.0, high_energy=3.0, signal_band="low", snr=2.0),
        ModalitySpec(low_energy=30.0, high_energy=3.0, signal_band="low", snr=2.0),
    )


# Manifest keys of dataset.json and of each of its modality specs.
_MANIFEST_KEYS = ("n_train", "n_test", "n_classes", "height", "width", "seed", "specs")
_SPEC_KEYS = ("low_energy", "high_energy", "signal_band", "snr")


def save_dataset(out_dir, ds: SynthDataset) -> None:
    """Persist per-modality stacks as raw float32 matrices plus a manifest.

    Each modality file holds one flattened image per row; the manifest
    records the plane dims, split sizes, specs, and seed for replay.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    h, w = ds.dims
    for i, stack in enumerate(ds.images):
        tensorio.write_raw(out / f"mod{i}.f32", stack.reshape(ds.n_samples, h * w))
    tensorio.write_raw(out / "labels.f32", ds.labels.astype(np.float64)[None, :])
    tensorio.write_manifest(
        out / "dataset.json",
        {
            "n_train": ds.n_train,
            "n_test": ds.n_test,
            "n_classes": ds.n_classes,
            "height": h,
            "width": w,
            "seed": ds.seed,
            "specs": [{key: getattr(s, key) for key in _SPEC_KEYS} for s in ds.specs],
        },
    )


# Bytes per read of dataset_digest.
_DIGEST_CHUNK = 1 << 20


def dataset_digest(in_dir) -> str:
    """sha256 over the bytes of the manifest, the labels and every modality file.

    Files are hashed a fixed-size chunk at a time, so no whole file is held.
    """
    src = Path(in_dir)
    digest = hashlib.sha256()
    for path in [src / "dataset.json", src / "labels.f32", *sorted(src.glob("mod*.f32"))]:
        with open(path, "rb") as fh:
            while chunk := fh.read(_DIGEST_CHUNK):
                digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class _SavedDataset:
    """What a saved dataset's manifest and labels say, and where its pixels are."""

    paths: tuple  # one raw (n, h*w) matrix per modality
    dims: tuple  # (h, w)
    labels: np.ndarray
    n_train: int
    n_classes: int
    specs: tuple
    seed: int


def _check_saved(src: Path) -> _SavedDataset:
    """Check a saved dataset without reading a pixel, in a fixed order.

    First the manifest (its keys, its specs and the sample count), then each
    modality file's header, size and (n, h*w) shape, then the labels: n
    integral values in [0, n_classes), a bad one reported with the first bad
    sample. So a malformed file is always reported, as a ValueError, before
    any pixel is read, and so before read_raw can find a non-finite one.
    """
    manifest = src / "dataset.json"
    meta = tensorio.read_manifest(manifest)
    tensorio.require_keys(meta, _MANIFEST_KEYS, manifest)
    tensorio.require_objects(meta["specs"], _SPEC_KEYS, f"{manifest} specs")
    h, w = int(meta["height"]), int(meta["width"])
    n = int(meta["n_train"]) + int(meta["n_test"])
    if n < 1:
        raise ValueError(f"{manifest}: n_train + n_test is {n}; a dataset needs at least one sample")
    n_classes = int(meta["n_classes"])
    specs = tuple(ModalitySpec(**{key: s[key] for key in _SPEC_KEYS}) for s in meta["specs"])
    paths = tuple(src / f"mod{i}.f32" for i in range(len(specs)))
    for path in paths:
        tensorio.check_raw(path, (n, h * w))
    labels_path = src / "labels.f32"
    labels = _check_labels(tensorio.read_raw(labels_path).reshape(-1), n, n_classes, labels_path)
    return _SavedDataset(
        paths=paths,
        dims=(h, w),
        labels=labels,
        n_train=int(meta["n_train"]),
        n_classes=n_classes,
        specs=specs,
        seed=int(meta["seed"]),
    )


def load_dataset(in_dir) -> SynthDataset:
    """Inverse of save_dataset, keeping the stacks in their on-disk float32.

    The files are checked as modality_blocks checks them, so both reject
    the same datasets with the same errors. All modalities are then read
    into one contiguous (m, n, h*w) float32 block, and `images` holds
    (n, h, w) views of it.
    """
    saved = _check_saved(Path(in_dir))
    n, (h, w) = len(saved.labels), saved.dims
    block = np.empty((len(saved.paths), n, h * w), dtype=np.float32)
    for path, stack in zip(saved.paths, block):
        tensorio.read_raw(path, out=stack)
    return SynthDataset(
        images=[stack.reshape(n, h, w) for stack in block],
        labels=saved.labels,
        n_train=saved.n_train,
        n_classes=saved.n_classes,
        specs=saved.specs,
        seed=saved.seed,
    )


def modality_blocks(in_dir):
    """Stream a saved dataset's pixels a modality and a block of planes at a time.

    Every file is checked, as load_dataset checks it, before this returns,
    so a malformed file fails before any pixel is read. Returns, per
    modality in order, the path of its file and an iterator over its
    consecutive (rows, h, w) float32 blocks of _BLOCK planes, the last one
    possibly fewer. A modality's blocks share one buffer, so each block is
    valid only until the next is read; the dataset is never held whole.
    """
    saved = _check_saved(Path(in_dir))
    n, (h, w) = len(saved.labels), saved.dims

    def blocks(path):
        for block in tensorio.read_raw_blocks(path, (n, h * w), _BLOCK):
            yield block.reshape(-1, h, w)

    return [(path, blocks(path)) for path in saved.paths]


def _check_labels(values, n: int, n_classes: int, path) -> np.ndarray:
    if len(values) != n:
        raise ValueError(
            f"{path}: expected {n} labels, got {len(values)}; first bad sample {min(n, len(values))}"
        )
    valid = (values >= 0) & (values < n_classes) & (np.floor(values) == values)
    bad = np.flatnonzero(~valid)
    if bad.size:
        label = float(values[bad[0]])
        raise ValueError(
            f"{path}: label {label!r} of sample {bad[0]} is not an integer in [0, {n_classes})"
        )
    return values.astype(np.int64)
