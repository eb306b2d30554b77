"""Small multimodal classifier with hand-derived gradients.

One ReLU MLP encoder per modality feeds a concat-fusion linear classifier;
optional per-modality linear auxiliary heads read each encoder's output.
Parameters live in a flat dict keyed "enc{i}.w{l}" / "enc{i}.b{l}",
"clf.w" / "clf.b", and "aux{i}.w" / "aux{i}.b"; gradients use the same
keys. Forward and backward are pure functions of (config, params, batch).
backward is the one encoder pass of a training step: besides the
gradients it returns the main and aux logits it computed on the way, and
the shared error signal softmax(logits) - onehot(labels), the only term
through which the modality branches interact. forward serves inference
(evaluation and probes) and gives bitwise the same logits.

Absent modalities (presence mask False) contribute an all-zero feature
vector: their inputs are never read (they may be None), their encoders are
not evaluated, and they have no gradient entries, so sgd_step leaves them
untouched.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensorio

ParamSet = dict  # name -> np.ndarray; gradients share the layout


@dataclass(frozen=True)
class NetConfig:
    input_dims: tuple
    hidden: tuple = (64, 32)
    n_classes: int = 4
    aux_heads: bool = False
    seed: int = 0

    def __post_init__(self):
        if len(self.input_dims) < 1:
            raise ValueError("need at least one modality")
        if self.n_classes < 2:
            raise ValueError(f"need >= 2 classes, got {self.n_classes}")
        if len(self.hidden) < 1:
            raise ValueError("encoders need at least one layer")
        for d in (*self.input_dims, *self.hidden):
            if d < 1:
                raise ValueError(f"zero-width layer in {self.input_dims} / {self.hidden}")

    @property
    def n_modalities(self) -> int:
        return len(self.input_dims)

    @property
    def feat_dim(self) -> int:
        return self.hidden[-1]


def init_network(cfg: NetConfig) -> ParamSet:
    """Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases.

    Deterministic for a given config seed; the draw order is fixed by the
    parameter layout.
    """
    rng = np.random.default_rng(cfg.seed)
    params: ParamSet = {}
    for i, d_in in enumerate(cfg.input_dims):
        widths = (d_in, *cfg.hidden)
        for l in range(len(cfg.hidden)):
            params[f"enc{i}.w{l}"] = _glorot(rng, widths[l], widths[l + 1])
            params[f"enc{i}.b{l}"] = np.zeros(widths[l + 1])
    total = cfg.feat_dim * cfg.n_modalities
    params["clf.w"] = _glorot(rng, total, cfg.n_classes)
    params["clf.b"] = np.zeros(cfg.n_classes)
    if cfg.aux_heads:
        for i in range(cfg.n_modalities):
            params[f"aux{i}.w"] = _glorot(rng, cfg.feat_dim, cfg.n_classes)
            params[f"aux{i}.b"] = np.zeros(cfg.n_classes)
    return params


def _glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


def _as_flat(x, d: int, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    x = x.reshape(x.shape[0], -1)
    if x.shape[1] != d:
        raise ValueError(f"{name}: expected feature width {d}, got {x.shape[1]}")
    return x


def _check_mask(cfg: NetConfig, mask):
    if mask is None:
        return [True] * cfg.n_modalities
    mask = list(mask)
    if len(mask) != cfg.n_modalities:
        raise ValueError(f"mask length {len(mask)} for {cfg.n_modalities} modalities")
    if not any(mask):
        raise ValueError("at least one modality must be present")
    return mask


def _encode(cfg: NetConfig, params: ParamSet, inputs, mask):
    """Run present encoders; returns per-modality features and relu caches.

    The sample count comes from the first present input; an absent
    modality's input is never read and may be None.
    """
    if len(inputs) != cfg.n_modalities:
        raise ValueError(f"{len(inputs)} inputs for {cfg.n_modalities} modalities")
    for i, present in enumerate(mask):
        if present and inputs[i] is None:
            raise ValueError(f"modality {i} is present but its input is None")
    n = np.asarray(inputs[mask.index(True)]).shape[0]
    feats, caches = [], []
    for i, present in enumerate(mask):
        if not present:
            feats.append(np.zeros((n, cfg.feat_dim)))
            caches.append(None)
            continue
        h = _as_flat(inputs[i], cfg.input_dims[i], f"modality {i}")
        if h.shape[0] != n:
            raise ValueError("modalities disagree on sample count")
        acts = [h]
        for l in range(len(cfg.hidden)):
            z = h @ params[f"enc{i}.w{l}"] + params[f"enc{i}.b{l}"]
            h = np.maximum(z, 0.0)
            acts.append(h)
        feats.append(h)
        caches.append(acts)
    return feats, caches


def _heads(cfg: NetConfig, params: ParamSet, feats):
    """Fused features, main logits and, with aux heads, per-modality aux logits."""
    fused = np.concatenate(feats, axis=1)
    logits = fused @ params["clf.w"] + params["clf.b"]
    aux = None
    if cfg.aux_heads:
        aux = [feats[i] @ params[f"aux{i}.w"] + params[f"aux{i}.b"] for i in range(cfg.n_modalities)]
    return fused, logits, aux


def forward(cfg: NetConfig, params: ParamSet, inputs, mask=None):
    """Logits (N, K) and, when the net has aux heads, per-modality aux logits."""
    feats, _ = _encode(cfg, params, inputs, _check_mask(cfg, mask))
    _, logits, aux = _heads(cfg, params, feats)
    return logits, aux


def softmax(logits) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits, labels) -> float:
    """Mean negative log-likelihood, computed with max subtraction."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits contain non-finite values")
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} for {n} samples")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels outside [0, {k})")
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(n), labels].mean())


def onehot(labels, k: int) -> np.ndarray:
    y = np.zeros((len(labels), k))
    y[np.arange(len(labels)), labels] = 1.0
    return y


def backward(cfg: NetConfig, params: ParamSet, inputs, labels, mask=None,
             aux_weights=None, error_override=None):
    """Gradients of the (optionally aux-weighted) cross-entropy loss.

    With aux_weights (one factor per modality) the loss is
    sum_i K_i * CE(aux_i) + CE(main); otherwise plain CE on the main
    logits. error_override substitutes the main path's per-sample error
    signal (softmax - onehot), which is how the coupling probes scale or
    zero the branch coupling while holding features fixed.

    Returns (grads, error, logits, aux_logits). grads holds only the
    tensors computed, in the key order of params: clf.*, the encoders of
    present branches and, when aux_weights are given, their aux tensors.
    Absent branches, and the aux tensors without aux_weights, have no
    entry; sgd_step carries them over unchanged. error is the natural
    softmax - onehot of the main logits. logits and aux_logits are bitwise what forward
    returns for the same arguments (aux_logits is None without aux heads),
    so a training step needs no separate forward pass.
    """
    mask = _check_mask(cfg, mask)
    if aux_weights is not None:
        if not cfg.aux_heads:
            raise ValueError("aux_weights given but the network has no aux heads")
        if len(aux_weights) != cfg.n_modalities:
            raise ValueError(f"{len(aux_weights)} aux weights for {cfg.n_modalities} modalities")
    labels = np.asarray(labels)
    feats, caches = _encode(cfg, params, inputs, mask)
    fused, logits, aux_logits = _heads(cfg, params, feats)
    n = logits.shape[0]
    y = onehot(labels, cfg.n_classes)
    error = softmax(logits) - y

    g = (error if error_override is None else np.asarray(error_override, dtype=np.float64)) / n
    grads: ParamSet = {"clf.w": fused.T @ g, "clf.b": g.sum(axis=0)}
    dfused = g @ params["clf.w"].T
    w = cfg.feat_dim
    dfeats = [dfused[:, i * w : (i + 1) * w] for i in range(cfg.n_modalities)]

    for i, present in enumerate(mask):
        if not present:
            continue
        if aux_weights is not None:
            ga = float(aux_weights[i]) * (softmax(aux_logits[i]) - y) / n
            grads[f"aux{i}.w"] = feats[i].T @ ga
            grads[f"aux{i}.b"] = ga.sum(axis=0)
            dfeats[i] = dfeats[i] + ga @ params[f"aux{i}.w"].T
        acts = caches[i]
        delta = dfeats[i]
        for l in reversed(range(len(cfg.hidden))):
            delta = delta * (acts[l + 1] > 0)
            grads[f"enc{i}.w{l}"] = acts[l].T @ delta
            grads[f"enc{i}.b{l}"] = delta.sum(axis=0)
            if l > 0:
                delta = delta @ params[f"enc{i}.w{l}"].T
    grads = {name: grads[name] for name in params if name in grads}
    return grads, error, logits, aux_logits


def sgd_step(cfg: NetConfig, params: ParamSet, grads: ParamSet, eta: float, weights=None) -> ParamSet:
    """One SGD update: encoder and aux tensors move by K_i * (eta * grad),
    the classifier always by the unscaled eta * grad.

    weights is one factor per modality (None means all ones). Only the
    tensors named in grads move; every other tensor of the result is the
    same array object as in params, which is exact because a zero gradient
    would subtract a zero. That sharing is sound only because sgd_step
    never writes into params or grads: each update is formed in one fresh
    temporary that becomes the new tensor.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    unknown = [name for name in grads if name not in params]
    if unknown:
        raise ValueError(f"grads name tensors that params lacks: {unknown}")
    if weights is None:
        k = np.ones(cfg.n_modalities)
    else:
        k = np.asarray(getattr(weights, "k", weights), dtype=np.float64)
        if k.shape != (cfg.n_modalities,):
            raise ValueError(f"need {cfg.n_modalities} weights, got shape {k.shape}")
    out = dict(params)
    for name, grad in grads.items():
        value = params[name]
        if grad.shape != value.shape:
            raise ValueError(f"{name}: grad shape {grad.shape} vs param shape {value.shape}")
        step = eta * grad
        if not name.startswith("clf."):
            step *= k[int(name[3 : name.index(".")])]
        out[name] = np.subtract(value, step, out=step)
    return out


def evaluate(cfg: NetConfig, params: ParamSet, inputs, labels, mask=None) -> float:
    """Top-1 accuracy under the given presence mask."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("empty evaluation set")
    logits, _ = forward(cfg, params, inputs, mask)
    return float((logits.argmax(axis=1) == labels).mean())


def encoder_grad_norms(cfg: NetConfig, grads: ParamSet) -> np.ndarray:
    """L2 norm of each encoder's stacked gradient tensors; 0.0 for a
    branch with no gradient entries (absent under the step's mask)."""
    norms = np.zeros(cfg.n_modalities)
    for i in range(cfg.n_modalities):
        if f"enc{i}.w0" not in grads:
            continue
        total = 0.0
        for l in range(len(cfg.hidden)):
            total += float(np.sum(grads[f"enc{i}.w{l}"] ** 2))
            total += float(np.sum(grads[f"enc{i}.b{l}"] ** 2))
        norms[i] = np.sqrt(total)
    return norms


def save_checkpoint(out_dir, cfg: NetConfig, params: ParamSet) -> None:
    """Write every tensor in the raw float32 format plus a manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tensors = []
    for name, value in params.items():
        tensorio.write_raw(out / f"{name}.f32", value)
        tensors.append({"name": name, "shape": list(value.shape)})
    tensorio.write_manifest(
        out / "checkpoint.json",
        {
            "net": {
                "input_dims": list(cfg.input_dims),
                "hidden": list(cfg.hidden),
                "n_classes": cfg.n_classes,
                "aux_heads": cfg.aux_heads,
                "seed": cfg.seed,
            },
            "tensors": tensors,
        },
    )


# Keys of checkpoint.json, of its "net" object and of each "tensors" entry.
_CHECKPOINT_KEYS = ("net", "tensors")
_NET_KEYS = ("input_dims", "hidden", "n_classes", "aux_heads", "seed")
_TENSOR_KEYS = ("name", "shape")


def load_checkpoint(in_dir):
    """Inverse of save_checkpoint; returns (config, params), params widened to float64.

    The manifest's keys are checked before any tensor is read; a missing
    one is a ValueError naming the file and the key.
    """
    src = Path(in_dir)
    path = src / "checkpoint.json"
    manifest = tensorio.read_manifest(path)
    tensorio.require_keys(manifest, _CHECKPOINT_KEYS, path)
    net, tensors = manifest["net"], manifest["tensors"]
    tensorio.require_keys(net, _NET_KEYS, f"{path} net")
    tensorio.require_objects(tensors, _TENSOR_KEYS, f"{path} tensors")
    cfg = NetConfig(
        input_dims=tuple(net["input_dims"]),
        hidden=tuple(net["hidden"]),
        n_classes=int(net["n_classes"]),
        aux_heads=bool(net["aux_heads"]),
        seed=int(net["seed"]),
    )
    params: ParamSet = {}
    for entry in tensors:
        value = tensorio.read_raw(src / f"{entry['name']}.f32")
        params[entry["name"]] = value.astype(np.float64).reshape(entry["shape"])
    return cfg, params
