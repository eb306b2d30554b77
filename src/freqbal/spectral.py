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

The FFT filters operate on whole planes instead: the spectrum is shifted
so DC sits at (H//2, W//2) and an n x n window centered there is either
kept (low pass) or zeroed (high pass). That window is the outer product of
one row mask and one column mask, so keeping it is a per-axis operator
too, A = ifft diag(d) fft, applied to whole stacks of planes.

Stacks are processed in fixed blocks of planes, each written into a
preallocated float64 result. A block is widened to float64 just before
its products, so a float32 stack (a loaded dataset) gives bitwise the
results of its float64 copy while only one block is ever held widened;
for a float64 stack the widening is a view.

All functions are pure; arrays are never modified in place. None checks
that its input is finite: planes and stacks come from files, which
tensorio.read_raw checks as it reads them, or from the generator.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SpectralConfig",
    "band_projections",
    "compute_maps_batch",
    "fft_filter",
    "check_window",
    "center_crop",
]


@dataclass(frozen=True)
class SpectralConfig:
    """Patch geometry and score parameters shared across the pipeline.

    p: patch side in pixels; q: band block side in coefficients;
    sigma: stabilizer added to the flipped high band in the ratio score;
    omega_bank: history weight of the smoothed score bank.
    """

    p: int = 8
    q: int = 2
    sigma: float = 1e-8
    omega_bank: float = 0.5
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
        if not 0.0 <= self.omega_bank <= 1.0:
            raise ValueError(f"omega_bank must lie in [0,1], got {self.omega_bank}")


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


# Planes per block of compute_maps_batch and fft_filter; bounds their
# temporaries to a few MB on top of the output.
_BLOCK = 256


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
    low_h, high_h = band_projections(h, cfg.p, cfg.q)
    low_w, high_w = band_projections(w, cfg.p, cfg.q)
    both_h = np.concatenate((low_h, high_h))
    k = len(low_h)
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


def check_window(n: int, h: int, w: int) -> None:
    """Raise ValueError unless an n x n window fits an h x w plane."""
    if n < 1 or n > min(h, w):
        raise ValueError(f"window side {n} out of range for {h}x{w} plane")


def fft_filter(img, kind: str, n: int) -> np.ndarray:
    """Keep (low_pass) or discard (high_pass) the centered n x n spectrum window.

    `img` is one (H, W) plane or an (N, H, W) stack of any float dtype; the
    result is float64 of its shape. The spectrum is fftshifted so DC lands
    at (H//2, W//2); the window of side n starts at center - n//2 on each
    axis, putting any odd-window asymmetry toward the bottom/right.
    Complementary kinds with the same n sum back to the input exactly (up
    to float rounding).

    The window is separable, so for a real plane X the low pass is
    Re(A_h X A_w^T) = C_h X C_w^T - S_h X S_w^T with (C, S) from
    `_window_operator`, and the high pass is X minus it: bitwise
    `img - fft_filter(img, "low_pass", n)`, so a caller that holds the low
    pass can form the high pass without filtering again. A stack is
    filtered in fixed blocks of planes, each widened to float64 and written
    into the preallocated result, so memory beyond the result stays at one
    block's temporaries; each plane's result is bitwise the same as
    filtering it alone, and the same for a float32 stack as for its float64
    copy.
    """
    imgs = np.asarray(img)
    if imgs.ndim not in (2, 3):
        raise ValueError(f"expected an (H, W) plane or (N, H, W) stack, got shape {imgs.shape}")
    if kind not in ("low_pass", "high_pass"):
        raise ValueError(f"unknown filter kind {kind!r}")
    h, w = imgs.shape[-2:]
    check_window(n, h, w)
    stack = imgs if imgs.ndim == 3 else imgs[None]
    c_h, s_h = _window_operator(h, n)
    c_w, s_w = _window_operator(w, n)
    both_h = np.concatenate((c_h, s_h))
    out = np.empty(stack.shape)
    for start in range(0, len(stack), _BLOCK):
        block = np.asarray(stack[start : start + _BLOCK], dtype=np.float64)
        result = out[start : start + _BLOCK]
        # One product applies both row parts; each half then meets its own
        # column part.
        rows = both_h @ block
        np.matmul(rows[:, :h], c_w.T, out=result)
        result -= rows[:, h:] @ s_w.T
        if kind == "high_pass":
            np.subtract(block, result, out=result)
    return out if imgs.ndim == 3 else out[0]


def center_crop(img, multiple: int) -> np.ndarray:
    """Crop a plane to the largest centered region divisible by `multiple`."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D plane, got shape {img.shape}")
    h, w = img.shape
    h2, w2 = (h // multiple) * multiple, (w // multiple) * multiple
    if h2 == 0 or w2 == 0:
        raise ValueError(f"plane {h}x{w} smaller than one {multiple}x{multiple} patch")
    top, left = (h - h2) // 2, (w - w2) // 2
    return img[top : top + h2, left : left + w2].copy()
