"""Run configuration: a flat key-value text format.

A config file holds one `key = value` pair per line; `#` starts a comment
and blank lines are ignored. Every key has a default, so the empty file is
a valid config. Modality specs use indexed keys (mod0.low_energy, ...);
when none are given the built-in imbalanced preset is used.

The canonical dump (every key, fixed order, full-precision floats) is the
identity of a run: its sha256 prefix is the config hash recorded in run
outputs and used to resume sweeps.
"""

import hashlib
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from .allocation import AllocationParams
from .errors import ConfigError
from .intervention import TrainConfig
from .spectral import SpectralConfig
from .synthdata import ModalitySpec, imbalanced_specs

_MOD_KEY = re.compile(r"^mod(\d+)\.(low_energy|high_energy|signal_band|snr)$")

_SCALAR_KEYS = (
    "seed", "mode", "eta", "epochs", "batch_size", "warmup_frac", "metric",
    "omega_band", "hidden", "patch", "block", "sigma", "omega_bank",
    "allow_overlap", "alpha", "beta", "lambda", "gamma", "n_train", "n_test",
    "classes", "height", "width", "data_dir",
)


@dataclass(frozen=True)
class DataConfig:
    n_train: int = 2000
    n_test: int = 500
    n_classes: int = 4
    height: int = 32
    width: int = 32
    specs: tuple = field(default_factory=imbalanced_specs)
    data_dir: str = None

    def __post_init__(self):
        if self.n_train < 1 or self.n_test < 0:
            raise ValueError("need n_train >= 1 and n_test >= 0")
        if not self.specs:
            raise ValueError("need at least one modality spec")


@dataclass(frozen=True)
class RunConfig:
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)

    @property
    def seed(self) -> int:
        return self.train.seed


def parse_kv(text: str) -> dict:
    """Parse `key = value` lines into an ordered dict of strings."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def parse_config(text: str) -> RunConfig:
    pairs = parse_kv(text)
    mod_values = {}
    for key in list(pairs):
        match = _MOD_KEY.match(key)
        if match:
            idx, field_name = int(match.group(1)), match.group(2)
            mod_values.setdefault(idx, {})[field_name] = pairs.pop(key)
    unknown = set(pairs) - set(_SCALAR_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    get = pairs.get
    try:
        specs = _build_specs(mod_values) if mod_values else imbalanced_specs()
        spectral = SpectralConfig(
            p=_int(get("patch", "8")),
            q=_int(get("block", "2")),
            sigma=_float(get("sigma", "1e-8")),
            omega_bank=_float(get("omega_bank", "0.5")),
            allow_overlap=_bool(get("allow_overlap", "false")),
        )
        allocation = AllocationParams(
            alpha=_float(get("alpha", "1.5")),
            beta=_float(get("beta", "1.0")),
            lam=_float(get("lambda", "6.0")),
            gamma=_float(get("gamma", "0.7")),
            sigma=_float(get("sigma", "1e-8")),
        )
        train = TrainConfig(
            mode=get("mode", "none"),
            eta=_float(get("eta", "0.15")),
            epochs=_int(get("epochs", "4")),
            batch_size=_int(get("batch_size", "64")),
            hidden=_int_tuple(get("hidden", "64,32")),
            metric=get("metric", "frm"),
            omega_band=_float(get("omega_band", "0.9")),
            warmup_frac=_float(get("warmup_frac", "0.05")),
            spectral=spectral,
            allocation=allocation,
            seed=_int(get("seed", "0")),
        )
        data = DataConfig(
            n_train=_int(get("n_train", "2000")),
            n_test=_int(get("n_test", "500")),
            n_classes=_int(get("classes", "4")),
            height=_int(get("height", "32")),
            width=_int(get("width", "32")),
            specs=specs,
            data_dir=get("data_dir") or None,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if data.height % spectral.p or data.width % spectral.p:
        raise ConfigError(
            f"dims {data.height}x{data.width} not divisible by patch side {spectral.p}"
        )
    return RunConfig(train=train, data=data)


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _build_specs(mod_values: dict) -> tuple:
    indices = sorted(mod_values)
    if indices != list(range(len(indices))):
        raise ConfigError(f"modality indices must be contiguous from 0, got {indices}")
    specs = []
    for i in indices:
        values = mod_values[i]
        try:
            specs.append(
                ModalitySpec(
                    low_energy=_float(values.get("low_energy", "1.0")),
                    high_energy=_float(values.get("high_energy", "1.0")),
                    signal_band=values.get("signal_band", "low"),
                    snr=_float(values.get("snr", "1.0")),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"mod{i}: {exc}") from exc
    return tuple(specs)


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc


def _bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes", "on"):
        return True
    if text.lower() in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected true/false, got {text!r}")


def _int_tuple(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def dump_config(cfg: RunConfig) -> str:
    """Canonical full-key serialization; parse(dump(cfg)) == cfg."""
    t, d = cfg.train, cfg.data
    s, a = t.spectral, t.allocation
    lines = [
        f"seed = {t.seed}",
        f"mode = {t.mode}",
        f"eta = {t.eta!r}",
        f"epochs = {t.epochs}",
        f"batch_size = {t.batch_size}",
        f"warmup_frac = {t.warmup_frac!r}",
        f"metric = {t.metric}",
        f"omega_band = {t.omega_band!r}",
        "hidden = " + ",".join(str(x) for x in t.hidden),
        f"patch = {s.p}",
        f"block = {s.q}",
        f"sigma = {s.sigma!r}",
        f"omega_bank = {s.omega_bank!r}",
        f"allow_overlap = {str(s.allow_overlap).lower()}",
        f"alpha = {a.alpha!r}",
        f"beta = {a.beta!r}",
        f"lambda = {a.lam!r}",
        f"gamma = {a.gamma!r}",
        f"n_train = {d.n_train}",
        f"n_test = {d.n_test}",
        f"classes = {d.n_classes}",
        f"height = {d.height}",
        f"width = {d.width}",
    ]
    if d.data_dir:
        lines.append(f"data_dir = {d.data_dir}")
    for i, spec in enumerate(d.specs):
        lines.extend(
            [
                f"mod{i}.low_energy = {spec.low_energy!r}",
                f"mod{i}.high_energy = {spec.high_energy!r}",
                f"mod{i}.signal_band = {spec.signal_band}",
                f"mod{i}.snr = {spec.snr!r}",
            ]
        )
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()[:12]


def replace_train(cfg: RunConfig, **changes) -> RunConfig:
    """New RunConfig with TrainConfig fields replaced, or ConfigError if invalid.

    A dict value updates a nested config, as in spectral={"q": 4}.
    """
    try:
        changes = {
            name: replace(getattr(cfg.train, name), **value) if isinstance(value, dict) else value
            for name, value in changes.items()
        }
        return RunConfig(train=replace(cfg.train, **changes), data=cfg.data)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
