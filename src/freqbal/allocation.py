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
one per modality. It computes no score itself: the training loop looks
the scores up in a per-sample table, and a score that depends on the
network could be passed in the same way.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

_EXP_CLAMP = 60.0


@dataclass(frozen=True)
class AllocationParams:
    """Scaling factors of the weight curve: K = alpha - beta / (1 + e^{-lam (T - gamma)})."""

    alpha: float = 1.5
    beta: float = 1.0
    lam: float = 6.0
    gamma: float = 0.7

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")


@dataclass
class ModalWeights:
    """One mini-batch step's per-modality weights K, ratios T, raw scores
    and bank-smoothed scores."""

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


def allocate(raw, banks, sigma: float, params: AllocationParams) -> ModalWeights:
    """Fold each modality's raw batch score into its bank and weight the result.

    The caller owns the banks and must hold them exclusively for the
    duration of the step; banks are mutated in place. A non-finite score
    raises NumericError naming the modality, before any bank is updated.
    """
    raw = np.array(raw, dtype=np.float64)
    if len(raw) != len(banks):
        raise ValueError(f"{len(raw)} scores for {len(banks)} banks")
    if len(raw) == 0:
        raise ValueError("need at least one modality")
    for i, score in enumerate(raw):
        if not np.isfinite(score):
            raise NumericError(f"non-finite score of modality {i}")
    smooth = [bank.update(r) for bank, r in zip(banks, raw)]
    t = relative_ratio(smooth, sigma)
    return ModalWeights(k=weight(t, params), t=t, raw=raw, smooth=np.array(smooth))
