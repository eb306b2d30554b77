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

Generated and loaded datasets share one layout: their stacks are float32
views of one contiguous block that holds every modality. generate bounds
its temporaries: one draw and two band maps the size of one modality's
band coefficients, and the float64 buffers of one block of planes, all
allocated once per call and reused by every modality.
"""

import hashlib
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensorio
from .spectral import _BLOCK, band_projections

# The patch side and band block side datasets are generated with. They are
# independent of the config's patch and block, which only set how the
# pipeline scores a dataset.
GEN_PATCH = 8
GEN_BLOCK = 2


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
    All three numbers must be finite real numbers (an int is one, a bool
    is not), so generated pixels are finite.
    """

    low_energy: float = 1.0
    high_energy: float = 1.0
    signal_band: str = "low"
    snr: float = 1.0

    def __post_init__(self):
        for name in ("low_energy", "high_energy", "snr"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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
    A dataset loaded with one split holds only that split's samples.
    Pixels are finite: generated ones by construction from finite specs,
    loaded ones because tensorio.read_raw checks every value it reads.
    Stacks are float32 (n, h, w) arrays, generated or loaded: a generated
    stack holds the values save_dataset writes, so a dataset and its saved
    copy hold the same pixels and train alike. Generated and loaded stacks
    are both views of one C-contiguous block that holds every modality, so
    a view of any stack keeps the whole block alive. Consumers widen to
    float64 before any arithmetic (per block of planes, per batch, or once
    for a split), which is exact.
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
) -> SynthDataset:
    """Build a dataset; deterministic for a given seed.

    dims must be divisible by the generation patch side GEN_PATCH; each
    band is one GEN_BLOCK x GEN_BLOCK corner of every patch. Labels are
    exactly class-balanced and shared across modalities.

    All modalities are written into one preallocated (m, n, h, w) float32
    block, and `images` holds its (n, h, w) views, as load_dataset gives.
    Each modality's draws are formed in place, in the order and with the
    operations of the one-shot formula, and its rescaled bands are written
    straight into their band maps. Its pixels, low_h.T @ low @ low_w +
    high_h.T @ high @ high_w for those maps, are computed in float64 a
    block of planes at a time into buffers allocated once per call, and
    rounded once to float32 as each block is stored. So the block is the
    only whole-stack array, and each plane is bitwise the one-shot
    formula's value rounded to float32, the rounding save_dataset applies.
    """
    specs = tuple(specs)
    if not specs:
        raise ValueError("need at least one modality spec")
    h, w = dims
    if h % GEN_PATCH or w % GEN_PATCH:
        raise ValueError(f"dims {dims} not divisible by the generator's patch side {GEN_PATCH}")
    if n_classes < 2:
        raise ValueError(f"n_classes must be at least 2, got {n_classes}")
    n = n_train + n_test
    if n < 1:
        raise ValueError("need at least one sample")
    p, q = GEN_PATCH, GEN_BLOCK
    gh, gw = h // p, w // p
    low_h, high_h = band_projections(h, p, q)
    low_w, high_w = band_projections(w, p, q)
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % n_classes)

    block = np.empty((len(specs), n, h, w), dtype=np.float32)
    draw = np.empty((n, gh, gw, q, q))
    low = np.empty((n, gh * q, gw * q))
    high = np.empty_like(low)
    rows = min(n, _BLOCK)
    inner = np.empty((rows, h, gw * q))
    low_pixels = np.empty((rows, h, w))
    high_pixels = np.empty_like(low_pixels)
    for spec, stack in zip(specs, block):
        templates = rng.normal(size=(n_classes, gh, gw, q, q))
        bands = ((low, spec.low_energy), (high, spec.high_energy))
        if spec.signal_band == "high":
            bands = bands[::-1]
        (signal, signal_energy), (noise, noise_energy) = bands
        # The signal band: spec.snr * templates[labels] + rng.normal(...),
        # its Gaussian draw held in the noise band's map until that is written.
        # Unlike the default mode, "clip" writes into draw without a buffer.
        np.take(templates, labels, axis=0, out=draw, mode="clip")
        draw *= spec.snr
        gauss = noise.reshape(draw.shape)
        _normal(rng, gauss)
        draw += gauss
        _rescale_band(draw, signal_energy, signal)
        _normal(rng, draw)
        np.copysign(1.0, draw, out=draw)
        _rescale_band(draw, noise_energy, noise)
        for start in range(0, n, _BLOCK):
            planes = slice(start, start + _BLOCK)
            r = min(_BLOCK, n - start)
            np.matmul(np.matmul(low_h.T, low[planes], out=inner[:r]), low_w, out=low_pixels[:r])
            np.matmul(np.matmul(high_h.T, high[planes], out=inner[:r]), high_w, out=high_pixels[:r])
            np.add(low_pixels[:r], high_pixels[:r], out=stack[planes])

    return SynthDataset(
        images=list(block),
        labels=labels,
        n_train=n_train,
        n_classes=n_classes,
        specs=specs,
        seed=seed,
    )


def _normal(rng, out) -> None:
    """Fill out with rng.normal(size=out.shape), bitwise.

    normal() returns 0.0 + 1.0 * x for a standard draw x, which is x except
    that a -0.0 becomes +0.0; the addition below does the same.
    """
    rng.standard_normal(out=out)
    out += 0.0


def _rescale_band(blocks, target: float, out) -> None:
    """Write blocks * (target / mass), mass each sample's L1 mass, into out.

    blocks is (n, gh, gw, q, q); out is its (n, gh*q, gw*q) band map, whose
    memory holds |blocks| while the mass is summed.
    """
    if target == 0:
        out.fill(0.0)
        return
    n, gh, gw, q, _ = blocks.shape
    mass = np.abs(blocks, out=out.reshape(blocks.shape)).sum(axis=(1, 2, 3, 4), keepdims=True)
    if np.any(mass == 0):
        raise ValueError("degenerate band draw; cannot hit a positive energy target")
    np.multiply(blocks, target / mass, out=out.reshape(n, gh, q, gw, q).swapaxes(2, 3))


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


# Manifest keys of dataset.json, its integer fields, and the keys of each
# of its modality specs.
_MANIFEST_INTS = dict.fromkeys(("n_train", "n_test", "n_classes", "height", "width", "seed"), "int")
_MANIFEST_KEYS = (*_MANIFEST_INTS, "specs")
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


def _check_saved(src: Path):
    """Check a saved dataset without reading a pixel, in a fixed order.

    First the manifest (its keys; its six integer fields, which must be
    JSON integers and are never coerced; its specs; the split sizes, which
    must not be negative, the class count, at least 2 as a net needs, the
    plane dims, then the sample count), then
    each modality file's header, size and (n, h*w) shape, then the labels: n
    integral values in [0, n_classes), a bad one reported with the first bad
    sample. So a malformed file is always reported, as a ValueError, before
    any pixel is read, and so before read_raw can find a non-finite one.

    Returns the modality files' paths, the (n, h, w) shape of each stack,
    and the SynthDataset fields other than images, so load_dataset builds
    the whole dataset at once and nothing half-built leaves the module.
    """
    manifest = src / "dataset.json"
    meta = tensorio.read_manifest(manifest)
    tensorio.require_keys(meta, _MANIFEST_KEYS, manifest)
    tensorio.require_fields(meta, _MANIFEST_INTS, manifest)
    tensorio.require_objects(meta["specs"], _SPEC_KEYS, f"{manifest} specs")
    for key, least in (("n_train", 0), ("n_test", 0), ("n_classes", 2), ("height", 1), ("width", 1)):
        if meta[key] < least:
            raise ValueError(f"{manifest}: {key} is {meta[key]}; it must be at least {least}")
    h, w = meta["height"], meta["width"]
    n = meta["n_train"] + meta["n_test"]
    if n < 1:
        raise ValueError(f"{manifest}: n_train + n_test is {n}; a dataset needs at least one sample")
    n_classes = meta["n_classes"]
    specs = []
    for i, spec in enumerate(meta["specs"]):
        try:
            specs.append(ModalitySpec(**{key: spec[key] for key in _SPEC_KEYS}))
        except ValueError as exc:
            raise ValueError(f"{manifest} specs[{i}]: {exc}") from exc
    specs = tuple(specs)
    paths = tuple(src / f"mod{i}.f32" for i in range(len(specs)))
    for path in paths:
        tensorio.check_raw(path, (n, h * w))
    labels_path = src / "labels.f32"
    labels = _check_labels(tensorio.read_raw(labels_path).reshape(-1), n, n_classes, labels_path)
    fields = {
        "labels": labels,
        "n_train": meta["n_train"],
        "n_classes": n_classes,
        "specs": specs,
        "seed": meta["seed"],
    }
    return paths, (n, h, w), fields


def load_dataset(in_dir, split=None) -> SynthDataset:
    """Inverse of save_dataset, keeping the stacks in their on-disk float32.

    _check_saved checks every file and gives every field but the pixels,
    as it does for modality_blocks, so both reject the same datasets with
    the same errors, and a malformed file fails before any pixel is read.
    split None loads every sample; "train" only the training samples,
    giving a dataset with n_test = 0; "test" only the test samples, giving
    one with n_train = 0. The split's rows of all modalities are read into
    one contiguous (m, rows, h*w) float32 block, and `images` holds
    (rows, h, w) views of it: the one-block layout generate gives. Every
    value of every file is still read and checked once by read_raw, so a
    NaN or inf in the samples left out is a NumericError all the same.
    """
    paths, (n, h, w), fields = _check_saved(Path(in_dir))
    n_train = fields["n_train"]
    lo, hi = {None: (0, n), "train": (0, n_train), "test": (n_train, n)}[split]
    block = np.empty((len(paths), hi - lo, h * w), dtype=np.float32)
    for path, stack in zip(paths, block):
        tensorio.read_raw(path, out=stack, rows=(lo, hi))
    fields["labels"] = fields["labels"][lo:hi]
    fields["n_train"] = 0 if split == "test" else n_train
    return SynthDataset(images=[stack.reshape(hi - lo, h, w) for stack in block], **fields)


def modality_blocks(in_dir):
    """Stream a saved dataset's pixels a modality and a block of planes at a time.

    _check_saved checks every file, as for load_dataset, before this
    returns, so a malformed file fails before any pixel is read; of what
    it gives, only the paths and the stack shape are used. Returns, per
    modality in order, the path of its file and an iterator over its
    consecutive (rows, h, w) float32 blocks of _BLOCK planes, the last one
    possibly fewer. A modality's blocks share one buffer, so each block is
    valid only until the next is read; the dataset is never held whole.
    """
    paths, (n, h, w), _ = _check_saved(Path(in_dir))

    def blocks(path):
        for block in tensorio.read_raw_blocks(path, (n, h * w), _BLOCK):
            yield block.reshape(-1, h, w)

    return [(path, blocks(path)) for path in paths]


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
