"""The balanced training loop: score, smooth, weight, then intervene.

Every iteration first looks up each modality's frequency preference of
the raw mini-batch, smooths it with the last step's smoothed scores, and
converts the result into guidance weights K. The four modes then differ
only in where K is applied:

  none      plain cross-entropy, plain SGD (K computed but unused)
  loss      aux-head losses weighted by K, plain SGD
  gradient  plain cross-entropy, encoder updates scaled by K
  hybrid    both interventions at once

The classifier head is updated with the unscaled learning rate in every
mode. Weight computation runs in all modes so traces from different modes
line up column for column.

The preference score is computed on the input pixels, plane by plane,
and a batch's score is the mean of its samples' scores. Neither depends on
the network or on which batch a sample lands in, so train scores the whole
training split once, before iteration 0, into one per-sample table per
modality, and each step's raw score is the mean of its samples' entries:
bitwise the value that scoring the batch's own pixels gives. With an
input metric, K is therefore constant up to batch noise: at seed 0 the
per-branch std of K was at most 8e-3. allocate stays the per-step path,
as the paper describes. A non-finite entry fails the run before any
step, naming the training sample. A score computed on features would
depend on the parameters and could not be tabled; allocation.allocate
takes raw scores, so it could still feed K.

A step makes one encoder pass: allocation.allocate gives K and the
smoothed scores the next step starts from, then one tinynet.backward call
yields the gradients together with the main and aux logits, from which
the loss and the trace's aux losses are computed once, and sgd_step
applies the update. A step's overflow warnings are silenced: the logits,
loss and final-parameter checks turn a non-finite result into one
NumericError.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .allocation import AllocationParams, allocate
from .errors import NumericError
from .preference import METRIC_KINDS, sample_preference
from .seeds import stream_rng, stream_seed
from .spectral import SpectralConfig
from .tinynet import (
    NetConfig,
    backward,
    cross_entropy,
    encoder_grad_norms,
    forward,
    init_network,
    net_for,
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

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.metric not in METRIC_KINDS:
            raise ValueError(f"metric must be one of {METRIC_KINDS}, got {self.metric!r}")
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not self.hidden or min(self.hidden) < 1:
            raise ValueError(f"hidden must list one or more layer widths >= 1, got {self.hidden}")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ValueError(f"warmup_frac must lie in [0,1), got {self.warmup_frac}")
        if not 0.0 <= self.omega_band <= 1.0:
            raise ValueError(f"omega_band must lie in [0,1], got {self.omega_band}")

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


def _numeric_context(iteration: int, trace: TrainTrace, k) -> str:
    last = trace.rows[-1][1] if trace.rows else "none"
    return f"at iteration {iteration} (k={[float(v) for v in k]}, last finite total_loss={last})"


def _first_bad_branch(net_cfg: NetConfig, params, xb, aux) -> str:
    """Name the first modality whose own branch gives non-finite logits.

    Runs only once the step's logits are known to be non-finite, inside
    the step's errstate. The aux logits already are per-branch outputs;
    without aux heads one forward call encodes every branch once and gives
    the logits of each branch alone, under its solo mask.
    """
    m = net_cfg.n_modalities
    if aux is None:
        solo_masks = [[j == i for j in range(m)] for i in range(m)]
        aux = [z for z, _ in forward(net_cfg, params, xb, solo_masks)]
    for i, z in enumerate(aux):
        if not np.all(np.isfinite(z)):
            return f"first non-finite branch: modality {i}"
    return "no single branch is non-finite"


def train(cfg: TrainConfig, dataset, on_epoch_end=None):
    """Run the loop over the dataset's training split.

    Returns (net_config, params, trace). The parameter-init and shuffle
    randomness are independent named streams of cfg.seed, so traces are
    bit-reproducible for a fixed config. A non-finite per-sample score
    raises NumericError naming the modality and the training sample before
    any step runs. Non-finite logits or a non-finite loss abort with a
    NumericError that names the iteration, K and the last finite total
    loss, and carries the partial trace; for non-finite logits it also
    names the first modality whose branch alone is non-finite. Final
    parameters that are not all finite in float32 raise a NumericError
    naming the first such tensor, also carrying the trace.

    on_epoch_end(epoch, net_cfg, params), when given, is called after each
    epoch; it must not mutate params.
    """
    m = dataset.n_modalities
    train_images, train_labels = dataset.train_split()
    n = len(train_labels)
    if n < 1:
        raise ValueError("dataset has no training samples")

    net_cfg = net_for(dataset, cfg.hidden, cfg.uses_aux, stream_seed(cfg.seed, "init"))
    # The table is checked entry by entry below, so numpy's warnings on bad
    # pixels would only repeat it.
    with np.errstate(invalid="ignore", over="ignore"):
        table = [
            sample_preference(img, cfg.spectral, cfg.metric, cfg.omega_band)
            for img in train_images
        ]
    for i, scores in enumerate(table):
        bad = np.flatnonzero(~np.isfinite(scores))
        if bad.size:
            raise NumericError(
                f"non-finite {cfg.metric} score of modality {i} at training sample {bad[0]}"
            )
    params = init_network(net_cfg)
    shuffle_rng = stream_rng(cfg.seed, "shuffle")
    trace = TrainTrace(m)
    warmup = warmup_iterations(cfg, n)

    iteration, smooth = 0, None
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = [img[idx] for img in train_images]
            yb = train_labels[idx]

            raw = [float(scores[idx].mean()) for scores in table]
            mw = allocate(raw, smooth, cfg.spectral.sigma, cfg.allocation)
            smooth = mw.smooth
            k = np.ones(m) if iteration < warmup else mw.k

            with np.errstate(over="ignore", invalid="ignore"):
                grads, _, logits, aux = backward(
                    net_cfg, params, xb, yb, aux_weights=(k if cfg.uses_aux else None)
                )
                if not all(np.all(np.isfinite(z)) for z in (logits, *(aux or ()))):
                    raise NumericError(
                        f"non-finite logits {_numeric_context(iteration, trace, k)}; "
                        f"{_first_bad_branch(net_cfg, params, xb, aux)}",
                        trace=trace,
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

    # Each step's logits check catches a bad update before the next step;
    # the last update has no next step. A checkpoint stores float32, so a
    # value beyond its range is checked as the inf it would be stored as.
    with np.errstate(over="ignore"):
        for name, value in params.items():
            if not np.all(np.isfinite(value.astype(np.float32))):
                raise NumericError(
                    f"non-finite parameter {name} in float32 after the last step, "
                    f"iteration {iteration - 1}",
                    trace=trace,
                )
    return net_cfg, params, trace
