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
from .preference import FrmBank, frm, mp_low, mp_sum, mp_weighted, sample_preference
from .spectral import FrequencyMaps, SpectralConfig, compute_maps, dct2, fft_filter, idct2

__all__ = [
    "AllocationParams",
    "FrequencyMaps",
    "FrmBank",
    "ModalWeights",
    "SpectralConfig",
    "allocate",
    "compute_maps",
    "dct2",
    "fft_filter",
    "frm",
    "idct2",
    "mp_low",
    "mp_sum",
    "mp_weighted",
    "relative_ratio",
    "sample_preference",
    "weight",
]
