"""The balanced training loop: score, smooth, weight, then intervene.

Every iteration first measures each modality's frequency preference on the
raw mini-batch, folds it into the per-modality banks, and converts the
smoothed scores into guidance weights K. The four modes then differ only
in where K is applied:

  none      plain cross-entropy, plain SGD (K computed but unused)
  loss      aux-head losses weighted by K, plain SGD
  gradient  plain cross-entropy, encoder updates scaled by K
  hybrid    both interventions at once

The classifier head is updated with the unscaled learning rate in every
mode. Weight computation runs in all modes so traces from different modes
line up column for column.

A step makes one encoder pass: allocation.allocate gives K, then one
tinynet.backward call yields the gradients together with the main and aux
logits, from which the loss and the trace's aux losses are computed once,
and sgd_step applies the update.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .allocation import AllocationParams, allocate
from .errors import NumericError
from .preference import FrmBank
from .seeds import stream_rng, stream_seed
from .spectral import SpectralConfig
from .tinynet import (
    NetConfig,
    backward,
    cross_entropy,
    encoder_grad_norms,
    init_network,
    sgd_step,
)

MODES = ("none", "loss", "gradient", "hybrid")


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "none"
    eta: float = 0.15
    epochs: int = 4
    batch_size: int = 64
    hidden: tuple = (64, 32)
    metric: str = "frm"
    omega_band: float = 0.9
    warmup_frac: float = 0.05
    spectral: SpectralConfig = field(default_factory=SpectralConfig)
    allocation: AllocationParams = field(default_factory=AllocationParams)
    seed: int = 0
    weight_override: tuple = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ValueError(f"warmup_frac must lie in [0,1), got {self.warmup_frac}")

    @property
    def uses_aux(self) -> bool:
        return self.mode in ("loss", "hybrid")

    @property
    def scales_gradients(self) -> bool:
        return self.mode in ("gradient", "hybrid")


class TrainTrace:
    """Per-iteration log with a fixed column layout.

    Columns: iteration, total_loss, then one block per field
    (aux_loss, frm_raw, frm_smooth, t, k, grad_norm), each with one column
    per modality. Aux-loss cells are nan when the network has no aux heads.
    """

    FIELDS = ("aux_loss", "frm_raw", "frm_smooth", "t", "k", "grad_norm")

    def __init__(self, n_modalities: int):
        self.n_modalities = n_modalities
        self.rows = []

    @staticmethod
    def columns(n_modalities: int):
        cols = ["iteration", "total_loss"]
        for field_name in TrainTrace.FIELDS:
            cols.extend(f"{field_name}_m{i}" for i in range(n_modalities))
        return cols

    def append(self, iteration, total_loss, aux_loss, frm_raw, frm_smooth, t, k, grad_norm):
        row = [iteration, total_loss]
        for block in (aux_loss, frm_raw, frm_smooth, t, k, grad_norm):
            row.extend(float(v) for v in block)
        self.rows.append(row)

    def column(self, name: str) -> np.ndarray:
        idx = self.columns(self.n_modalities).index(name)
        return np.array([row[idx] for row in self.rows])

    def write_csv(self, path) -> None:
        from .bench import write_csv  # local import; bench owns CSV formatting

        write_csv(path, self.columns(self.n_modalities), self.rows)

    def __len__(self):
        return len(self.rows)


def weighted_loss(main_logits, aux_logits, labels, k):
    """Total loss sum_i K_i * CE(aux_i) + CE(main), and the aux CEs.

    Returns (total, aux_losses); aux_losses[i] is the unweighted CE(aux_i).
    """
    if aux_logits is None:
        raise ValueError("loss-level intervention needs aux logits; enable aux heads")
    if len(aux_logits) != len(k):
        raise ValueError(f"{len(aux_logits)} aux logit sets for {len(k)} weights")
    total = cross_entropy(main_logits, labels)
    aux_losses = [cross_entropy(logits_i, labels) for logits_i in aux_logits]
    for loss_i, k_i in zip(aux_losses, k):
        total += float(k_i) * loss_i
    return total, aux_losses


def warmup_iterations(cfg: TrainConfig, n_train: int) -> int:
    per_epoch = math.ceil(n_train / cfg.batch_size)
    return int(round(cfg.warmup_frac * cfg.epochs * per_epoch))


def _numeric_context(iteration: int, trace: TrainTrace, k=None) -> str:
    last = trace.rows[-1][1] if trace.rows else "none"
    weights = "" if k is None else f"k={[float(v) for v in k]}, "
    return f"at iteration {iteration} ({weights}last finite total_loss={last})"


def train(cfg: TrainConfig, dataset, on_epoch_end=None):
    """Run the loop over the dataset's training split.

    Returns (net_config, params, trace). The parameter-init and shuffle
    randomness are independent named streams of cfg.seed, so traces are
    bit-reproducible for a fixed config. Non-finite logits or a non-finite
    loss abort with a NumericError that names the iteration, K and the
    last finite total loss, and carries the partial trace; a non-finite
    per-batch score does the same, naming the modality instead of K.

    on_epoch_end(epoch, net_cfg, params), when given, is called after each
    epoch; it must not mutate params.
    """
    m = dataset.n_modalities
    train_images, train_labels = dataset.train_split()
    n = len(train_labels)
    if n < 1:
        raise ValueError("dataset has no training samples")
    if cfg.weight_override is not None and len(cfg.weight_override) != m:
        raise ValueError(f"weight_override needs {m} entries")

    h, w = dataset.dims
    net_cfg = NetConfig(
        input_dims=(h * w,) * m,
        hidden=cfg.hidden,
        n_classes=dataset.n_classes,
        aux_heads=cfg.uses_aux,
        seed=stream_seed(cfg.seed, "init"),
    )
    params = init_network(net_cfg)
    banks = [FrmBank(omega=cfg.spectral.omega_bank) for _ in range(m)]
    shuffle_rng = stream_rng(cfg.seed, "shuffle")
    trace = TrainTrace(m)
    warmup = warmup_iterations(cfg, n)

    iteration = 0
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = [img[idx] for img in train_images]
            yb = train_labels[idx]

            try:
                mw = allocate(
                    xb, banks, cfg.spectral, cfg.allocation, cfg.metric, cfg.omega_band
                )
            except NumericError as exc:
                raise NumericError(f"{exc} {_numeric_context(iteration, trace)}", trace=trace) from exc
            if cfg.weight_override is not None:
                k = np.asarray(cfg.weight_override, dtype=np.float64)
            elif iteration < warmup:
                k = np.ones(m)
            else:
                k = mw.k

            grads, _, logits, aux = backward(
                net_cfg, params, xb, yb, aux_weights=(k if cfg.uses_aux else None)
            )
            if not all(np.all(np.isfinite(z)) for z in (logits, *(aux or ()))):
                raise NumericError(
                    f"non-finite logits {_numeric_context(iteration, trace, k)}", trace=trace
                )
            if cfg.uses_aux:
                loss, aux_losses = weighted_loss(logits, aux, yb, k)
            else:
                loss, aux_losses = cross_entropy(logits, yb), [math.nan] * m
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss {_numeric_context(iteration, trace, k)}", trace=trace
                )

            gnorms = encoder_grad_norms(net_cfg, grads)
            params = sgd_step(
                net_cfg, params, grads, cfg.eta, k if cfg.scales_gradients else None
            )
            trace.append(iteration, loss, aux_losses, mw.raw, mw.smooth, mw.t, k, gnorms)
            iteration += 1
        if on_epoch_end is not None:
            on_epoch_end(epoch, net_cfg, params)

    return net_cfg, params, trace
