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

One routine, _planes, makes every generated pixel of a modality: it
draws the modality's band maps into arrays of its own, then renders
them a block of planes at a time into destinations its caller supplies.
generate renders into slices of one float32 block that holds the whole
dataset, and save_generated into one reused block buffer that it hands
to the modality's file before the next block is rendered, so it never
holds the dataset. Both give bitwise the same planes. The synthesis
temporaries are bounded: one draw and two band maps the size of one
modality's band coefficients, and the float64 buffers of one block of
planes, each allocated per modality.

Every dataset holds float32 stacks: a generated one views of its one
block, a loaded or filtered one an array per modality. Every dataset
directory is written by write_dataset, which removes the manifest before
it writes the first file and writes it last, so a directory whose write
stopped part way holds no manifest and does not load.
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
    Stacks are float32 (n, h, w) arrays, whether generated, loaded or
    filtered (bench.filter_dataset): each holds the values save_dataset
    writes, so a dataset and its saved copy hold the same pixels and train
    alike. Generated stacks are views of one C-contiguous block that holds
    every modality, so a view of any stack keeps the whole block alive;
    loaded and filtered datasets have one array per modality.
    Consumers widen to float64 before any arithmetic (per block of planes,
    per batch, or once for a split), which is exact.
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
    block, and `images` holds its (n, h, w) views. _planes renders each
    block of planes straight into its slice of that block, so the block is
    the only whole-stack array and no plane is copied. Each plane is
    bitwise the one-shot formula low_h.T @ low @ low_w + high_h.T @ high @
    high_w of its band maps, computed in float64 and rounded once to
    float32, the rounding save_dataset applies; a save_generated directory
    holds the same bytes as save_dataset of it.
    """
    specs, labels, rng = _prepare(specs, n_train, n_test, n_classes, dims, seed)
    block = np.empty((len(specs), len(labels), *dims), dtype=np.float32)
    for spec, stack in zip(specs, block):
        for _ in _planes(spec, labels, n_classes, dims, rng, lambda lo, hi: stack[lo:hi]):
            pass
    return SynthDataset(
        images=list(block),
        labels=labels,
        n_train=n_train,
        n_classes=n_classes,
        specs=specs,
        seed=seed,
    )


def save_generated(
    out_dir,
    specs,
    n_train: int = 2000,
    n_test: int = 500,
    n_classes: int = 4,
    dims=(32, 32),
    seed: int = 0,
) -> None:
    """Write the dataset generate(...) builds to out_dir, a block of planes at a time.

    Every argument is checked, as generate checks it, before out_dir is
    made. Each block is rendered into one reused float32 buffer and written
    to its modality's file before the next is rendered, so the dataset is
    never held; the files are byte for byte those of save_dataset(out_dir,
    generate(...)).
    """
    specs, labels, rng = _prepare(specs, n_train, n_test, n_classes, dims, seed)
    buffer = np.empty((min(len(labels), _BLOCK), *dims), dtype=np.float32)
    write_dataset(
        out_dir,
        (_planes(spec, labels, n_classes, dims, rng, lambda lo, hi: buffer[: hi - lo]) for spec in specs),
        dims=dims,
        labels=labels,
        n_train=n_train,
        n_classes=n_classes,
        specs=specs,
        seed=seed,
    )


def _prepare(specs, n_train, n_test, n_classes, dims, seed):
    """Check generate's arguments; return the specs as a tuple, the labels and
    the random stream that has drawn them, ready for the first modality."""
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
    rng = np.random.default_rng(seed)
    return specs, rng.permutation(np.arange(n) % n_classes), rng


def _planes(spec, labels, n_classes, dims, rng, dest):
    """Draw one modality's band maps; return an iterator over its rendered blocks.

    The draws are made now, from rng, in the order and with the operations
    of the one-shot formula, and the rescaled bands are written straight
    into band maps this call owns, so another modality may draw from rng,
    or render, before this one's blocks are used up. dest(lo, hi) gives
    the float32 (hi - lo, h, w) array that planes lo to hi - 1 are
    rendered into, and the iterator yields that array once it holds them.
    Blocks hold _BLOCK planes, the last one possibly fewer. Each block's
    pixels are computed in float64 into buffers allocated once per
    modality and rounded once to float32 as they are stored.
    """
    n = len(labels)
    h, w = dims
    p, q = GEN_PATCH, GEN_BLOCK
    gh, gw = h // p, w // p
    low_h, high_h = band_projections(h, p, q)
    low_w, high_w = band_projections(w, p, q)
    draw = np.empty((n, gh, gw, q, q))
    low = np.empty((n, gh * q, gw * q))
    high = np.empty_like(low)
    templates = rng.normal(size=(n_classes, gh, gw, q, q))
    bands = ((low, spec.low_energy), (high, spec.high_energy))
    if spec.signal_band == "high":
        bands = bands[::-1]
    (signal, signal_energy), (noise, noise_energy) = bands
    # The signal band: spec.snr * templates[labels] + rng.normal(...),
    # its Gaussian draw held in the noise band's map until that is written.
    # Unlike the default mode, "clip" writes into draw without a buffer.
    np.take(templates, labels, axis=0, out=draw, mode="clip")
    np.multiply(draw, spec.snr, out=draw)
    gauss = noise.reshape(draw.shape)
    _normal(rng, gauss)
    np.add(draw, gauss, out=draw)
    _rescale_band(draw, signal_energy, signal)
    _normal(rng, draw)
    np.copysign(1.0, draw, out=draw)
    _rescale_band(draw, noise_energy, noise)

    def render():
        rows = min(n, _BLOCK)
        inner = np.empty((rows, h, gw * q))
        low_pixels = np.empty((rows, h, w))
        high_pixels = np.empty_like(low_pixels)
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            r = stop - start
            out = dest(start, stop)
            np.matmul(np.matmul(low_h.T, low[start:stop], out=inner[:r]), low_w, out=low_pixels[:r])
            np.matmul(np.matmul(high_h.T, high[start:stop], out=inner[:r]), high_w, out=high_pixels[:r])
            np.add(low_pixels[:r], high_pixels[:r], out=out)
            yield out

    return render()


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
    """Persist a dataset through write_dataset, each stack as its one block.

    The public entry point for writing a whole in-memory dataset; gen
    writes through save_generated, which never holds one.
    """
    write_dataset(
        out_dir,
        ([stack] for stack in ds.images),
        dims=ds.dims,
        labels=ds.labels,
        n_train=ds.n_train,
        n_classes=ds.n_classes,
        specs=ds.specs,
        seed=ds.seed,
    )


def write_dataset(out_dir, modalities, *, dims, labels, n_train, n_classes, specs, seed) -> None:
    """Write a dataset directory: raw float32 matrices plus a manifest.

    The one writer of dataset directories. `modalities` yields, per
    modality in order, an iterable of its consecutive (rows, h, w) blocks
    of planes, of any numeric dtype; each is taken only once the files
    before it are written and each is read to its end before the next is
    taken, so a producer can make one modality, or one block, at a time.
    Each modality file holds one flattened image per row; the manifest
    records the plane dims, split sizes, specs, and seed for replay.

    dataset.json is removed before the first file is written and written
    last, atomically, so a write that stops part way (an error, a full
    disk, a crash) leaves no manifest, and load_dataset refuses the
    directory instead of loading new files beside old ones.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = out / "dataset.json"
    manifest.unlink(missing_ok=True)
    h, w = dims
    n = len(labels)
    for i, blocks in enumerate(modalities):
        rows = (block.reshape(len(block), h * w) for block in blocks)
        tensorio.write_raw_blocks(out / f"mod{i}.f32", (n, h * w), rows)
    tensorio.write_raw(out / "labels.f32", labels.astype(np.float64)[None, :])
    tensorio.write_manifest(
        manifest,
        {
            "n_train": n_train,
            "n_test": n - n_train,
            "n_classes": n_classes,
            "height": h,
            "width": w,
            "seed": seed,
            "specs": [{key: getattr(s, key) for key in _SPEC_KEYS} for s in specs],
        },
    )


# Bytes per read of dataset_digest.
_DIGEST_CHUNK = 1 << 20


def dataset_digest(in_dir) -> str:
    """sha256 over the bytes of the manifest, the labels and the modality files it names.

    The directory is checked as load_dataset checks it, without reading a
    pixel, and only mod0.f32 ... mod{m-1}.f32 of its m specs are hashed, so
    a file left by an earlier write of more modalities changes nothing.
    Files are hashed a fixed-size chunk at a time, so no whole file is held.
    """
    src = Path(in_dir)
    modalities, _, _ = _check_saved(src)
    digest = hashlib.sha256()
    for path in [src / "dataset.json", src / "labels.f32", *modalities]:
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
    one with n_train = 0. Each modality's stack is the split's rows of its
    file as read_raw returns them, a float32 array of its own, shaped
    (rows, h, w). Every value of every file is still read and checked once
    by read_raw, so a NaN or inf in the samples left out is a NumericError
    all the same.
    """
    paths, (n, h, w), fields = _check_saved(Path(in_dir))
    n_train = fields["n_train"]
    lo, hi = {None: (0, n), "train": (0, n_train), "test": (n_train, n)}[split]
    images = [tensorio.read_raw(path, rows=(lo, hi)).reshape(hi - lo, h, w) for path in paths]
    fields["labels"] = fields["labels"][lo:hi]
    fields["n_train"] = 0 if split == "test" else n_train
    return SynthDataset(images=images, **fields)


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
