"""Modality-preference scores over band maps.

The main score is the frequency ratio metric: the L1 norm of the low band
divided cellwise by the flipped high band (plus a stabilizer). Ablation
variants keep only the low band, the plain sum of both bands, or a fixed
convex blend of the two. Every score is per plane. score_bands scores
band maps that are already computed; sample_preference scores a whole
stack of planes in one pass through it, and a mini-batch's score is the
mean of its samples' scores; allocation.allocate smooths that batch score
across mini-batches.
"""

import numpy as np

from .spectral import SpectralConfig, compute_maps_batch


def sample_preference(
    stack, cfg: SpectralConfig, kind: str = "frm", omega_band: float = 0.9
) -> np.ndarray:
    """Per-sample scores of one modality's stack of planes.

    `stack` is an (N, H, W) stack; the result has shape (N,). Each plane
    is scored on its own, so a sample's score does not depend on the stack
    that holds it, and the score of a mini-batch, the mean of its samples'
    scores, is the mean of their entries in a table built once over the
    whole split. A dataset's float32 stack is widened block by block inside
    compute_maps_batch.
    """
    stack = np.asarray(stack)
    if stack.ndim != 3 or stack.shape[0] == 0:
        raise ValueError(f"expected a non-empty (N, H, W) stack, got shape {stack.shape}")
    low, high = compute_maps_batch(stack, cfg)
    return score_bands(low, high, kind, cfg.sigma, omega_band)


def _l1(band):
    return np.abs(band).sum(axis=(-2, -1))


def _frm(low, high, sigma, omega_band):
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    flipped = high[..., ::-1, ::-1]
    return _l1(low / (flipped + sigma))


def _mp_weighted(low, high, sigma, omega_band):
    if not 0.0 <= omega_band <= 1.0:
        raise ValueError(f"omega_band must lie in [0,1], got {omega_band}")
    return omega_band * _l1(low) + (1.0 - omega_band) * _l1(high)


# Per-sample reducers keyed by metric kind.
_REDUCERS = {
    "frm": _frm,
    "mp_low": lambda low, high, sigma, omega_band: _l1(low),
    "mp_sum": lambda low, high, sigma, omega_band: _l1(low) + _l1(high),
    "mp_weighted": _mp_weighted,
}
METRIC_KINDS = tuple(_REDUCERS)


def score_bands(low, high, kind, sigma, omega_band):
    """Score of the metric `kind` of low and high band maps of equal shape.

    frm is sum |low[a,b] / (high[-1-a,-1-b] + sigma)|, the high map flipped
    along both axes; mp_low is the low band's L1 norm, mp_sum the sum of
    both bands' L1 norms, and mp_weighted the blend
    omega_band*|low| + (1-omega_band)*|high|. The trailing two axes are the
    band map and leading axes broadcast: one (h, w) pair gives a scalar, an
    (N, h, w) stack one score per sample.
    """
    if kind not in _REDUCERS:
        raise ValueError(f"unknown metric kind {kind!r}; expected one of {METRIC_KINDS}")
    return _REDUCERS[kind](low, high, sigma, omega_band)
