"""freqbal: frequency-domain modality preference and balanced multimodal training.

The library measures how strongly each input modality concentrates its
energy in low spatial frequencies (the frequency ratio metric, FRM),
smooths that measurement across mini-batches, converts it into per-branch
guidance weights, and applies those weights to a small multimodal
classifier through loss weighting and/or gradient scaling. Companion
modules verify the gradient-coupling and eigen-decay claims that motivate
the scheme, generate synthetic datasets with controlled band energies, and
orchestrate sweeps through a CSV-emitting CLI.
"""

__version__ = "0.1.0"

from .allocation import AllocationParams, ModalWeights, allocate, relative_ratio, weight
from .preference import sample_preference
from .spectral import SpectralConfig, fft_filter, high_pass

__all__ = [
    "AllocationParams",
    "ModalWeights",
    "SpectralConfig",
    "allocate",
    "fft_filter",
    "high_pass",
    "relative_ratio",
    "sample_preference",
    "weight",
]
