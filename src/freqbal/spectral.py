"""Patch-DCT band maps and FFT windowed filtering for grayscale planes.

A plane is viewed as a grid of non-overlapping p x p patches. Each patch's
orthonormal 2-D DCT-II has a top-left q x q corner (its low-frequency
component) and a bottom-right q x q corner (its high-frequency component),
and the band maps place those corners by patch position into two maps of
shape (H*q/p, W*q/p). Only the corners are ever used, so the maps are
computed as per-axis projections onto them: with B the p x p DCT basis and
L = kron(I, B[:q]) for each axis, the low map is L_h X L_w^T, and the high
map uses B[p-q:] the same way. The transposes of the same projections turn
band maps back into pixels, which is how the synthetic generator builds
its images.

The FFT low pass operates on whole planes instead: the spectrum is shifted
so DC sits at (H//2, W//2) and an n x n window centered there is kept, the
rest zeroed; high_pass states the one high-pass rule. That window is the
outer product of one row mask and one column mask, so keeping it is a
per-axis operator too, A = ifft diag(d) fft, applied to whole stacks.

Stacks are processed in fixed blocks of planes, each written into a
preallocated result. A block is widened to float64 just before its
products, so a float32 stack (a dataset's) gives bitwise the results of
its float64 copy while only one block is ever held widened. Results are
float64, except that fft_filter returns a float32 stack's low pass in
float32: each block is computed in float64 and rounded once as it is
stored, which is how a filtered dataset stays float32.

All functions are pure and never modify their inputs, except that
high_pass writes into the low pass it is given. None checks that its
input is finite: stacks come from dataset files, which tensorio.read_raw
checks as it reads them, or from the generator.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SpectralConfig",
    "band_projections",
    "compute_maps_batch",
    "FILTER_KINDS",
    "fft_filter",
    "high_pass",
    "check_window",
]


@dataclass(frozen=True)
class SpectralConfig:
    """Patch geometry and score parameters shared across the pipeline.

    p: patch side in pixels; q: band block side in coefficients;
    sigma: stabilizer added to the flipped high band in the ratio score,
    and to the mean score in allocation.relative_ratio.
    """

    p: int = 8
    q: int = 2
    sigma: float = 1e-8
    allow_overlap: bool = False

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"patch side must be >= 2, got {self.p}")
        if self.q < 1:
            raise ValueError(f"block side must be >= 1, got {self.q}")
        if 2 * self.q > self.p and not self.allow_overlap:
            raise ValueError(
                f"q={self.q} overlaps the low/high corners for p={self.p}; "
                "requires allow_overlap"
            )
        if self.q > self.p:
            raise ValueError(f"block side q={self.q} cannot exceed patch side p={self.p}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@lru_cache(maxsize=None)
def _dct_basis(p: int) -> np.ndarray:
    # Orthonormal DCT-II: row k holds c_k * cos(pi*(2n+1)*k / (2p)),
    # c_0 = sqrt(1/p), c_k = sqrt(2/p). Basis is orthogonal, so the
    # transform preserves the Frobenius norm exactly.
    k = np.arange(p)[:, None]
    n = np.arange(p)[None, :]
    basis = np.cos(np.pi * (2 * n + 1) * k / (2.0 * p)) * np.sqrt(2.0 / p)
    basis[0, :] = np.sqrt(1.0 / p)
    basis.setflags(write=False)
    return basis


@lru_cache(maxsize=None)
def band_projections(side: int, p: int, q: int):
    """Low and high band projections of one plane axis of length `side`.

    Returns read-only (low, high) arrays of shape (side*q/p, side):
    kron(I, B[:q]) and kron(I, B[p-q:]) for the DCT basis B of side p. For
    a plane X of shape (H, W), low_H @ X @ low_W.T is the low band map and
    low_H.T @ M @ low_W puts a low band map M back into pixels.
    """
    if side % p:
        raise ValueError(f"axis of length {side} not divisible by patch side {p}")
    if not 1 <= q <= p:
        raise ValueError(f"block side q={q} out of range for p={p}")
    basis = _dct_basis(p)
    eye = np.eye(side // p)
    low = np.kron(eye, basis[:q])
    high = np.kron(eye, basis[p - q :])
    low.setflags(write=False)
    high.setflags(write=False)
    return low, high


# Planes per block of compute_maps_batch, fft_filter and the generator. A
# block of 32 x 32 planes widened to float64 is 0.5 MB, so the block and
# its products (2.6 MB of temporaries in fft_filter, 1.3 MB in
# compute_maps_batch) stay near the size of a 2 MB L2 cache; 256-plane
# blocks took four times that. With one BLAS thread on a 2-vCPU VM, 64-plane
# blocks ran band maps, fft_filter and generate 3-16 % faster than 256.
_BLOCK = 64


@lru_cache(maxsize=None)
def _stacked_rows(operator, *key) -> np.ndarray:
    """The two row operators of operator(*key), stacked read-only into one.

    `operator` is band_projections or _window_operator; one product with
    the stack applies both of its parts to a block's rows.
    """
    both = np.concatenate(operator(*key))
    both.setflags(write=False)
    return both


def compute_maps_batch(imgs, cfg: SpectralConfig):
    """Band maps of a stack of planes of shape (N, H, W), any float dtype.

    Returns float64 (low, high) arrays of shape (N, H*q/p, W*q/p). Each
    plane's maps are bitwise the same whatever the stack's size, and the
    same for a float32 stack as for its float64 copy.
    """
    imgs = np.asarray(imgs)
    if imgs.ndim != 3:
        raise ValueError(f"expected (N, H, W), got shape {imgs.shape}")
    n, h, w = imgs.shape
    if h % cfg.p or w % cfg.p:
        raise ValueError(f"planes {h}x{w} not divisible by patch side {cfg.p}")
    both_h = _stacked_rows(band_projections, h, cfg.p, cfg.q)
    low_w, high_w = band_projections(w, cfg.p, cfg.q)
    k = len(both_h) // 2
    low = np.empty((n, k, len(low_w)))
    high = np.empty_like(low)
    for start in range(0, n, _BLOCK):
        block = np.asarray(imgs[start : start + _BLOCK], dtype=np.float64)
        # One product projects the rows onto both bands; each band's rows
        # then meet their own column projection.
        rows = both_h @ block
        np.matmul(rows[:, :k], low_w.T, out=low[start : start + _BLOCK])
        np.matmul(rows[:, k:], high_w.T, out=high[start : start + _BLOCK])
    return low, high


@lru_cache(maxsize=None)
def _window_operator(side: int, n: int):
    """Real and imaginary parts (C, S) of the window's operator on one axis.

    A = ifft . diag(d) . fft, where d keeps the n frequencies of the centered
    window (it starts at side//2 - n//2 in fftshifted order) and zeroes the
    rest. Both parts are read-only (side, side) arrays.
    """
    shifted = np.zeros(side)
    start = side // 2 - n // 2
    shifted[start : start + n] = 1.0
    keep = np.fft.ifftshift(shifted)
    op = np.fft.ifft(keep[:, None] * np.fft.fft(np.eye(side), axis=0), axis=0)
    c, s = np.ascontiguousarray(op.real), np.ascontiguousarray(op.imag)
    c.setflags(write=False)
    s.setflags(write=False)
    return c, s


# The filter kinds: fft_filter's low pass and the high pass high_pass forms from it.
FILTER_KINDS = ("low_pass", "high_pass")


def check_window(n: int, h: int, w: int) -> None:
    """Raise ValueError unless an n x n window fits an h x w plane."""
    if n < 1 or n > min(h, w):
        raise ValueError(f"window side {n} out of range for {h}x{w} plane")


def fft_filter(imgs, n: int) -> np.ndarray:
    """Low pass: keep the centered n x n spectrum window, zero the rest.

    `imgs` is an (N, H, W) stack of any float dtype; the result has its
    shape and is float32 for a float32 stack, float64 otherwise. A plane is
    filtered as the one-plane stack plane[None]. The spectrum is fftshifted
    so DC lands at (H//2, W//2); the window of side n starts at
    center - n//2 on each axis, putting any odd-window asymmetry toward the
    bottom/right. For the high pass see high_pass.

    The window is separable, so for a real plane X the low pass is
    Re(A_h X A_w^T) = C_h X C_w^T - S_h X S_w^T with (C, S) from
    `_window_operator`. The stack is filtered in fixed blocks of planes,
    each widened to float64, so memory beyond the result stays at one
    block's temporaries; each plane's result is bitwise the same as
    filtering it alone, and a float32 result holds its float64 copy's
    rounded once.
    """
    imgs = np.asarray(imgs)
    if imgs.ndim != 3:
        raise ValueError(f"expected (N, H, W), got shape {imgs.shape}")
    n_planes, h, w = imgs.shape
    check_window(n, h, w)
    out = np.empty(imgs.shape, dtype=np.float32 if imgs.dtype == np.float32 else np.float64)
    both_h = _stacked_rows(_window_operator, h, n)
    c_w, s_w = _window_operator(w, n)
    # A float64 result takes each block's values directly; a float32 one
    # receives them from one reused float64 block.
    wide = None if out.dtype == np.float64 else np.empty((min(n_planes, _BLOCK), h, w))
    for start in range(0, n_planes, _BLOCK):
        block = np.asarray(imgs[start : start + _BLOCK], dtype=np.float64)
        result = out[start : start + _BLOCK] if wide is None else wide[: len(block)]
        # One product applies both row parts; each half then meets its own
        # column part.
        rows = both_h @ block
        np.matmul(rows[:, :h], c_w.T, out=result)
        result -= rows[:, h:] @ s_w.T
        if wide is not None:
            out[start : start + _BLOCK] = result
    return out


def high_pass(img, low) -> np.ndarray:
    """The one high-pass rule: img minus its low pass, written into `low`.

    The subtraction runs in low's dtype (float32 for a dataset stack's
    fft_filter low pass) and `low` is returned, so a caller holding the
    low pass forms the high pass with no second filter or array.
    """
    return np.subtract(img, low, out=low)
