"""Per-branch guidance weights from smoothed preference scores.

Each modality's smoothed score is first expressed relative to the mean
score of all modalities; that ratio T is then pushed through a reflected,
rescaled sigmoid so that strongly preferred modalities (T above the pivot
gamma) receive small weights and weak ones receive large weights. With
lam > 0 the weight is strictly decreasing in T and stays inside the open
interval (alpha - beta, alpha). The stabilizer sigma added to the mean
score is the SpectralConfig's, the same one the ratio score adds to its
denominator.

allocate runs one step of that pipeline from the mini-batch's raw scores,
one per modality, and the last step's smoothed scores, which it blends
with them into an exponential moving average. It holds no state and
changes nothing it is given. It computes no score itself: the training
loop looks the scores up in a per-sample table, and a score that depends
on the network could be passed in the same way.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

_EXP_CLAMP = 60.0


@dataclass(frozen=True)
class AllocationParams:
    """Weight curve K = alpha - beta / (1 + e^{-lam (T - gamma)}), which lies
    between alpha - beta and alpha, and omega_bank, the history weight of
    the smoothed scores. A K below 0 would make its branch ascend."""

    alpha: float = 1.5
    beta: float = 1.0
    lam: float = 6.0
    gamma: float = 0.7
    omega_bank: float = 0.5

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if min(self.alpha, self.alpha - self.beta) < 0:
            raise ValueError(
                f"weights can go below 0: need alpha >= 0 and alpha >= beta, "
                f"got alpha={self.alpha}, beta={self.beta}"
            )
        if not 0.0 <= self.omega_bank <= 1.0:
            raise ValueError(f"omega_bank must lie in [0,1], got {self.omega_bank}")


@dataclass
class ModalWeights:
    """One mini-batch step's per-modality weights K, ratios T, raw scores
    and smoothed scores."""

    k: np.ndarray
    t: np.ndarray
    raw: np.ndarray
    smooth: np.ndarray


def relative_ratio(scores, sigma: float = 1e-8) -> np.ndarray:
    """Each score divided by the mean score of all modalities (plus sigma)."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("need at least one modality score")
    if np.any(scores < 0) or not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite and >= 0")
    return scores / (scores.mean() + sigma)


def weight(t, params: AllocationParams = AllocationParams()):
    """Reflected-sigmoid weight of a ratio (scalar or array).

    The exponent is clamped to +-60 so the result is finite for any T.
    """
    t = np.asarray(t, dtype=np.float64)
    z = np.clip(-params.lam * (t - params.gamma), -_EXP_CLAMP, _EXP_CLAMP)
    k = params.alpha - params.beta / (1.0 + np.exp(z))
    return float(k) if k.ndim == 0 else k


def allocate(raw, previous, sigma: float, params: AllocationParams) -> ModalWeights:
    """Smooth each modality's raw batch score and weight the result.

    previous is the last step's ModalWeights.smooth, or None at the first
    step, which takes the raw scores as they are; later steps smooth to
    omega_bank * previous + (1 - omega_bank) * raw, so a smoothed score
    stays inside the range of the raw scores seen. A non-finite raw score
    raises NumericError and a negative one ValueError, each naming the
    modality; a previous of another shape than raw raises ValueError.
    """
    raw = np.array(raw, dtype=np.float64)
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError(f"need one score per modality, got shape {raw.shape}")
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        raise NumericError(f"non-finite score of modality {bad[0]}")
    negative = np.flatnonzero(raw < 0)
    if negative.size:
        raise ValueError(f"negative score {float(raw[negative[0]])!r} of modality {negative[0]}")
    if previous is None:
        smooth = raw.copy()
    else:
        previous = np.asarray(previous, dtype=np.float64)
        if previous.shape != raw.shape:
            raise ValueError(f"previous scores of shape {previous.shape} for {raw.shape} raw scores")
        smooth = params.omega_bank * previous + (1.0 - params.omega_bank) * raw
    t = relative_ratio(smooth, sigma)
    return ModalWeights(k=weight(t, params), t=t, raw=raw, smooth=smooth)
