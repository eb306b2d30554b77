"""Per-branch guidance weights from smoothed preference scores.

Each modality's smoothed score is first expressed relative to the mean
score of all modalities; that ratio T is then pushed through a reflected,
rescaled sigmoid so that strongly preferred modalities (T above the pivot
gamma) receive small weights and weak ones receive large weights. With
lam > 0 the weight is strictly decreasing in T and stays inside the open
interval (alpha - beta, alpha).
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .preference import FrmBank, batch_preference
from .spectral import SpectralConfig

_EXP_CLAMP = 60.0


@dataclass(frozen=True)
class AllocationParams:
    """Scaling factors of the weight curve: K = alpha - beta / (1 + e^{-lam (T - gamma)})."""

    alpha: float = 1.5
    beta: float = 1.0
    lam: float = 6.0
    gamma: float = 0.7
    sigma: float = 1e-8

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


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


def allocate(
    batches,
    banks,
    cfg: SpectralConfig,
    params: AllocationParams,
    kind: str = "frm",
    omega_band: float = 0.9,
) -> ModalWeights:
    """Score each modality's batch, update its bank, and weight the result.

    The caller owns the banks and must hold them exclusively for the
    duration of the step; banks are mutated in place. A non-finite score
    raises NumericError naming the modality, before any bank is updated.
    """
    if len(batches) != len(banks):
        raise ValueError(f"{len(batches)} batches for {len(banks)} banks")
    if len(batches) == 0:
        raise ValueError("need at least one modality")
    sizes = {np.asarray(b).shape[0] for b in batches}
    if len(sizes) > 1:
        raise ValueError(f"modalities disagree on batch size: {sorted(sizes)}")
    # Each score is checked below, so numpy's warnings on bad pixels would
    # only repeat it.
    with np.errstate(invalid="ignore", over="ignore"):
        raw = [batch_preference(batch, cfg, kind, omega_band) for batch in batches]
    for i, score in enumerate(raw):
        if not np.isfinite(score):
            raise NumericError(f"non-finite {kind} score of modality {i}")
    smooth = [bank.update(r) for bank, r in zip(banks, raw)]
    t = relative_ratio(smooth, params.sigma)
    return ModalWeights(k=weight(t, params), t=t, raw=np.array(raw), smooth=np.array(smooth))
