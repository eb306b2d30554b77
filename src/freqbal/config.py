"""Run configuration: a flat key-value text format.

A config file holds one `key = value` pair per line; `#` starts a comment
and blank lines are ignored. Modality specs use indexed keys (mod0.low_energy,
...); when none are given the built-in imbalanced preset is used.

_KEYS is the one schema of the scalar keys: each row names the key, the
section dataclass that holds it (train, spectral, allocation or data), the
field, and the parser of its text; a float key must be finite. The
unknown-key check, parse_config, dump_config and override all read it.
Defaults live only on the dataclasses, so the empty file is a valid config.
override changes a config by the keys a user writes and validates the
result exactly as a config file is.

The canonical dump (every key, fixed order, full-precision floats) is the
identity of a run: its sha256 prefix is the config hash recorded in run
outputs and used to resume sweeps.
"""

import hashlib
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .allocation import AllocationParams
from .errors import ConfigError
from .intervention import TrainConfig
from .spectral import SpectralConfig
from .synthdata import ModalitySpec, imbalanced_specs


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
        if self.n_classes < 2:
            raise ValueError(f"classes must be at least 2, got {self.n_classes}")
        for key, dim in (("height", self.height), ("width", self.width)):
            if dim < 1:
                raise ValueError(f"{key} is {dim}; it must be at least 1")
        if not self.specs:
            raise ValueError("need at least one modality spec")


@dataclass(frozen=True)
class RunConfig:
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)

    @property
    def seed(self) -> int:
        return self.train.seed


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


def int_tuple(text: str) -> tuple:
    """Comma-separated integers, blanks skipped; the parser of config int lists and CLI options."""
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def _path(text: str):
    # parse_kv cuts values at "#", so such a path could not round-trip
    # through a dumped config.
    if "#" in text:
        raise ConfigError(f"path {text!r} holds '#', which starts a comment in a config file")
    return text or None


# (key, section, field, parser) in dump order.
_KEYS = (
    ("seed", "train", "seed", _int),
    ("mode", "train", "mode", str),
    ("eta", "train", "eta", _float),
    ("epochs", "train", "epochs", _int),
    ("batch_size", "train", "batch_size", _int),
    ("warmup_frac", "train", "warmup_frac", _float),
    ("metric", "train", "metric", str),
    ("omega_band", "train", "omega_band", _float),
    ("hidden", "train", "hidden", int_tuple),
    ("patch", "spectral", "p", _int),
    ("block", "spectral", "q", _int),
    ("sigma", "spectral", "sigma", _float),
    ("omega_bank", "allocation", "omega_bank", _float),
    ("allow_overlap", "spectral", "allow_overlap", _bool),
    ("alpha", "allocation", "alpha", _float),
    ("beta", "allocation", "beta", _float),
    ("lambda", "allocation", "lam", _float),
    ("gamma", "allocation", "gamma", _float),
    ("n_train", "data", "n_train", _int),
    ("n_test", "data", "n_test", _int),
    ("classes", "data", "n_classes", _int),
    ("height", "data", "height", _int),
    ("width", "data", "width", _int),
    ("data_dir", "data", "data_dir", _path),
)

# field -> parser of one modality's ModalitySpec, written as mod<i>.<field>.
_MOD_FIELDS = {"low_energy": _float, "high_energy": _float, "signal_band": str, "snr": _float}
_MOD_KEY = re.compile(r"^mod(\d+)\.(\w+)$")


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
    return _build(parse_kv(text))


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _build(pairs: dict) -> RunConfig:
    """Validated RunConfig from key -> value text; absent keys keep defaults."""
    parsers = {key: (section, name, parse) for key, section, name, parse in _KEYS}
    sections = {"train": {}, "spectral": {}, "allocation": {}, "data": {}}
    mods, unknown = {}, []
    for key, value in pairs.items():
        match = _MOD_KEY.match(key)
        if match and match.group(2) in _MOD_FIELDS:
            mods.setdefault(int(match.group(1)), {})[match.group(2)] = value
        elif key in parsers:
            section, name, parse = parsers[key]
            parsed = parse(value)
            if parse is _float and not math.isfinite(parsed):
                raise ConfigError(f"{key} must be finite, got {value}")
            sections[section][name] = parsed
        else:
            unknown.append(key)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if mods:
        sections["data"]["specs"] = _build_specs(mods)
    try:
        train = TrainConfig(
            spectral=SpectralConfig(**sections["spectral"]),
            allocation=AllocationParams(**sections["allocation"]),
            **sections["train"],
        )
        data = DataConfig(**sections["data"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if data.height % train.spectral.p or data.width % train.spectral.p:
        raise ConfigError(
            f"dims {data.height}x{data.width} not divisible by patch side {train.spectral.p}"
        )
    return RunConfig(train=train, data=data)


def _build_specs(mods: dict) -> tuple:
    indices = sorted(mods)
    if indices != list(range(len(indices))):
        raise ConfigError(f"modality indices must be contiguous from 0, got {indices}")
    specs = []
    for i in indices:
        try:
            values = {name: _MOD_FIELDS[name](text) for name, text in mods[i].items()}
            specs.append(ModalitySpec(**values))
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"mod{i}: {exc}") from exc
    return tuple(specs)


def _format(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(str(x) for x in value)
    return str(value)


def _pairs(cfg: RunConfig) -> dict:
    """Every set key of cfg with its formatted value, in dump order."""
    sections = {
        "train": cfg.train,
        "spectral": cfg.train.spectral,
        "allocation": cfg.train.allocation,
        "data": cfg.data,
    }
    pairs = {}
    for key, section, name, _ in _KEYS:
        value = getattr(sections[section], name)
        if value is not None:
            pairs[key] = _format(value)
    for i, spec in enumerate(cfg.data.specs):
        for name in _MOD_FIELDS:
            pairs[f"mod{i}.{name}"] = _format(getattr(spec, name))
    return pairs


def dump_config(cfg: RunConfig) -> str:
    """Canonical full-key serialization; parse(dump(cfg)) == cfg."""
    return "".join(f"{key} = {value}\n" for key, value in _pairs(cfg).items())


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()[:12]


def override(cfg: RunConfig, changes: dict) -> RunConfig:
    """New RunConfig with config keys changed, as in {"block": 4}.

    The result is rebuilt from cfg's dumped pairs, so it is validated as a
    config file is; an unknown key or invalid value raises ConfigError.
    """
    return _build({**_pairs(cfg), **{key: _format(value) for key, value in changes.items()}})
