"""Executable checks of the gradient-coupling and eigen-decay claims.

Two mechanisms motivate frequency-based rebalancing. First, under concat
fusion the modality branches share a single error signal, so a branch that
collapses the loss early throttles everyone else's gradients; the coupling
probe and the suppression experiment measure that directly on the small
classifier. Second, full-batch gradient descent on a linear model contracts
each residual eigen-direction of the feature Gram matrix by exactly
(1 - eta * lambda_i) per step, so large-eigenvalue (low-frequency)
directions converge first; decay_check verifies the law numerically.

decay_check forms the Gram matrix X X^T itself and decomposes it with
numpy's LAPACK-backed eigh, which reads one triangle of it.
"""

from dataclasses import dataclass

import numpy as np

from .seeds import stream_rng, stream_seed
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

# The coupling probe's error-signal scale factors: powers of two, so a
# scaled gradient norm is bitwise r times the base norm.
COUPLING_SCALES = (0.5, 0.25)

# The suppression experiment's mini-batch size, the full training loss the
# pre-fit must reach within PREFIT_MAX_ITERS steps, and the rows per forward
# pass of that loss.
BATCH_SIZE = 64
PREFIT_TARGET = 0.05
PREFIT_MAX_ITERS = 2000
PREFIT_ROWS = 256


@dataclass(frozen=True)
class SpectrumReport:
    """Eigen-structure of the feature Gram matrix X X^T, plus the decay-law fit.

    eigenvalues are descending; eigenvectors are orthonormal columns.
    factors holds (1 - eta*lambda_i), trajectories the measured projections
    <q_t - y, u_i> for t = 0..steps (rows), and max_rel_deviation the
    largest deviation from the predicted geometric decay per direction,
    normalized by that direction's initial projection.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    eta: float
    steps: int
    factors: np.ndarray
    trajectories: np.ndarray
    max_rel_deviation: np.ndarray


def decay_check(x, y, eta: float = None, steps: int = 50) -> SpectrumReport:
    """Train the linear model f = theta^T x by full-batch gradient descent
    from theta = 0 on the squared loss and compare each eigen-direction's
    residual against its closed-form geometric decay.

    eta defaults to 0.5 / lambda_1 and must satisfy eta < 2 / lambda_1.
    Deviations are normalized by |<q_0 - y, u_i>|, each direction's
    initial residual projection, so directions that decay to the float
    noise floor are judged against their own starting scale.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError(f"features {x.shape} do not match {y.shape[0]} targets")
    if x.size == 0:
        raise ValueError(f"x holds no samples or no features: shape {x.shape}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not np.all(np.isfinite(x)):
        raise ValueError("features contain non-finite values")
    w, v = np.linalg.eigh(x @ x.T)
    lam, u = w[::-1].copy(), v[:, ::-1].copy()
    lam_max = float(lam[0])
    if lam_max <= 0:
        raise ValueError("Gram matrix has no positive eigenvalues")
    if eta is None:
        eta = 0.5 / lam_max
    if not 0 < eta < 2.0 / lam_max:
        raise ValueError(f"eta={eta} unstable; requires 0 < eta < {2.0 / lam_max}")

    n, d = x.shape
    theta = np.zeros(d)
    projections = np.empty((steps + 1, n))
    for t in range(steps + 1):
        residual = x @ theta - y
        projections[t] = u.T @ residual
        if t < steps:
            theta = theta - eta * (x.T @ residual)

    factors = 1.0 - eta * lam
    exponents = np.arange(steps + 1)[:, None]
    predicted = projections[0][None, :] * factors[None, :] ** exponents
    denom = np.maximum(np.abs(projections[0]), 1e-30)
    deviation = np.abs(np.abs(projections) - np.abs(predicted)) / denom[None, :]

    return SpectrumReport(
        eigenvalues=lam,
        eigenvectors=u,
        eta=float(eta),
        steps=steps,
        factors=factors,
        trajectories=projections,
        max_rel_deviation=deviation.max(axis=0),
    )


@dataclass
class CouplingReport:
    """Shared-error norm, per-branch gradient norms, and the linearity check.

    scaling_max_rel_err is the worst relative mismatch, over the probed
    scale factors and encoders, between the gradient norm under a rescaled
    error signal and the proportionally rescaled original norm.
    """

    error_norm: float
    encoder_grad_norms: np.ndarray
    classifier_grad_norm: float
    scaling_max_rel_err: float


def coupling_probe(net_cfg: NetConfig, params, inputs, labels) -> CouplingReport:
    """Measure how every branch's gradient tracks the shared error signal.

    Holding the batch (hence all features) fixed, the main-path error
    signal softmax - onehot is replaced by r * itself for each r in
    COUPLING_SCALES; each encoder's gradient norm must shrink by exactly r.
    """
    grads, error, *_ = backward(net_cfg, params, inputs, labels)
    base_norms = encoder_grad_norms(net_cfg, grads)
    clf_norm = float(
        np.sqrt(np.sum(grads["clf.w"] ** 2) + np.sum(grads["clf.b"] ** 2))
    )
    worst = 0.0
    for r in COUPLING_SCALES:
        scaled_grads, *_ = backward(net_cfg, params, inputs, labels, error_override=r * error)
        scaled_norms = encoder_grad_norms(net_cfg, scaled_grads)
        expected = r * base_norms
        live = expected > 0
        if np.any(live):
            rel = np.abs(scaled_norms[live] - expected[live]) / expected[live]
            worst = max(worst, float(rel.max()))
    return CouplingReport(
        error_norm=float(np.linalg.norm(error)),
        encoder_grad_norms=base_norms,
        classifier_grad_norm=clf_norm,
        scaling_max_rel_err=worst,
    )


def suppression_experiment(
    dataset,
    dominant: int = 0,
    weak: int = 1,
    hidden=(64, 32),
    eta: float = 0.15,
    measure_iters: int = 20,
    seed: int = 0,
):
    """Quantify gradient suppression of a weak branch by a pre-fitted one.

    The treatment arm first trains the dominant branch alone (mask limited
    to it, plain SGD) until the full training loss drops below
    PREFIT_TARGET, then both arms run measure_iters joint steps over the
    identical batch sequence; the control arm starts from the same joint
    initialization without any pre-fit. Returns a dict with the mean weak-
    encoder gradient norm of each arm and their ratio (treatment/control).

    The pre-fit gathers only the dominant modality's batch, and its steps
    leave the masked branches' tensors as the initial arrays. The two arms
    then run in lockstep: each batch of the "measure" stream is gathered
    once and fed to both, so each arm sees the same sequence it would alone.
    The initial parameters are never written to.
    """
    m = dataset.n_modalities
    if not (0 <= dominant < m and 0 <= weak < m and dominant != weak):
        raise ValueError(f"bad branch indices dominant={dominant}, weak={weak} for M={m}")
    train_images, train_labels = dataset.train_split()
    n = len(train_labels)
    net_cfg = net_for(dataset, hidden, seed=stream_seed(seed, "init"))
    params0 = init_network(net_cfg)
    solo_mask = [i == dominant for i in range(m)]

    prefit = params0
    rng = stream_rng(seed, "prefit")
    prefit_loss = None
    for it in range(PREFIT_MAX_ITERS):
        idx = rng.integers(0, n, size=BATCH_SIZE)
        xb = [img[idx] if present else None for img, present in zip(train_images, solo_mask)]
        grads, *_ = backward(net_cfg, prefit, xb, train_labels[idx], mask=solo_mask)
        prefit = sgd_step(net_cfg, prefit, grads, eta)
        if it % 25 == 24:
            # ceil(n / PREFIT_ROWS) equal blocks: fixed by n, so the loss is
            # deterministic, and no whole split is widened. On OpenBLAS 0.3.31
            # the logits were one pass's bitwise up to n = 2560, not at 3000.
            blocks = -(-n // PREFIT_ROWS)
            logits = []
            for i in range(blocks):
                rows = [img[i * n // blocks : (i + 1) * n // blocks] for img in train_images]
                [(block, _)] = forward(net_cfg, prefit, rows, [solo_mask])
                logits.append(block)
            prefit_loss = cross_entropy(np.concatenate(logits), train_labels)
            if prefit_loss < PREFIT_TARGET:
                break
    else:
        raise ValueError(
            f"dominant branch failed to reach loss {PREFIT_TARGET} "
            f"within {PREFIT_MAX_ITERS} iterations (last {prefit_loss})"
        )

    arms = [prefit, params0]  # treatment, control
    norms = [[], []]
    batch_rng = stream_rng(seed, "measure")
    for _ in range(measure_iters):
        idx = batch_rng.integers(0, n, size=BATCH_SIZE)
        xb = [img[idx] for img in train_images]
        yb = train_labels[idx]
        for a, params in enumerate(arms):
            grads, *_ = backward(net_cfg, params, xb, yb)
            norms[a].append(encoder_grad_norms(net_cfg, grads)[weak])
            arms[a] = sgd_step(net_cfg, params, grads, eta)
    treated, control = (float(np.mean(arm_norms)) for arm_norms in norms)
    return {
        "weak_norm_prefit": treated,
        "weak_norm_control": control,
        "ratio": treated / control,
        "prefit_loss": prefit_loss,
    }
