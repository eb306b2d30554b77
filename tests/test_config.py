from dataclasses import fields

import pytest

from freqbal.allocation import AllocationParams
from freqbal.config import (
    _KEYS,
    DataConfig,
    RunConfig,
    config_hash,
    dump_config,
    load_config,
    override,
    parse_config,
    parse_kv,
)
from freqbal.errors import ConfigError
from freqbal.intervention import TrainConfig
from freqbal.spectral import SpectralConfig
from freqbal.synthdata import imbalanced_specs

# Every scalar key set away from its default, with patch 8, block 5 under
# allow_overlap, 16x24 planes and a data_dir. Its dump and hash are golden:
# a change to either changes the identity of every recorded run.
ALL_KEYS = (
    "seed = 7\nmode = hybrid\neta = 0.2\nepochs = 3\nbatch_size = 32\nwarmup_frac = 0.1\n"
    "metric = mp_weighted\nomega_band = 0.8\nhidden = 32,16\npatch = 8\nblock = 5\n"
    "sigma = 1e-06\nomega_bank = 0.25\nallow_overlap = true\nalpha = 1.2\nbeta = 0.9\n"
    "lambda = 5.5\ngamma = 0.6\nn_train = 100\nn_test = 40\nclasses = 3\nheight = 16\n"
    "width = 24\ndata_dir = /tmp/ds\n"
)
ALL_KEYS_DUMP = ALL_KEYS + (
    "mod0.low_energy = 9.0\nmod0.high_energy = 1.0\nmod0.signal_band = low\nmod0.snr = 1.5\n"
    "mod1.low_energy = 1.0\nmod1.high_energy = 3.0\nmod1.signal_band = high\nmod1.snr = 1.0\n"
)


class TestParseKv:
    def test_comments_and_blanks(self):
        pairs = parse_kv("# header\n\n a = 1 # trailing\nb=two\n")
        assert pairs == {"a": "1", "b": "two"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_kv("just a line\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_kv("a = 1\na = 2\n")


class TestParseConfig:
    def test_empty_config_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.train == TrainConfig()
        assert cfg.data == DataConfig()
        assert cfg.data.specs == imbalanced_specs()

    def test_roundtrip_through_dump(self):
        cfg = parse_config(
            "seed = 7\nmode = hybrid\neta = 0.2\nepochs = 3\nhidden = 32,16\n"
            "patch = 8\nblock = 2\nalpha = 1.2\nlambda = 5.5\n"
            "mod0.low_energy = 9\nmod0.snr = 1.5\nmod1.high_energy = 3\n"
        )
        again = parse_config(dump_config(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("etaa = 0.5\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("eta = fast\n")

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("mode = turbo\n")

    def test_bad_metric_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("metric = mp_cubed\n")

    def test_non_contiguous_modalities_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("mod0.snr = 1\nmod2.snr = 1\n")

    def test_dims_must_match_patch(self):
        with pytest.raises(ConfigError):
            parse_config("height = 30\n")

    def test_overlap_gate(self):
        with pytest.raises(ConfigError):
            parse_config("block = 6\n")
        cfg = parse_config("block = 6\nallow_overlap = true\n")
        assert cfg.train.spectral.q == 6

    def test_hash_changes_with_content(self):
        a = parse_config("seed = 1\n")
        b = parse_config("seed = 2\n")
        assert config_hash(a) != config_hash(b)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")

    def test_override(self):
        cfg = parse_config("seed = 3\n")
        other = override(cfg, {"mode": "loss"})
        assert other.train.mode == "loss"
        assert other.train.seed == 3
        assert other.data == cfg.data

    def test_override_nested_and_invalid(self):
        cfg = parse_config("")
        other = override(cfg, {"block": 3, "alpha": 1.2})
        assert (other.train.spectral.q, other.train.allocation.alpha) == (3, 1.2)
        assert other.train.spectral.p == cfg.train.spectral.p
        for bad in ({"block": 6}, {"metric": "mp_cubed"}, {"eta": 0.0}, {"height": 30}, {"etaa": 1}):
            with pytest.raises(ConfigError):
                override(cfg, bad)

    def test_data_dir_with_comment_mark_rejected(self):
        # "#" starts a comment, so the dump of such a config would parse
        # back to another data_dir and another hash.
        cfg = parse_config("")
        with pytest.raises(ConfigError, match="#"):
            override(cfg, {"data_dir": "/data/run#2"})
        other = override(cfg, {"data_dir": "/data/run 2"})
        assert parse_config(dump_config(other)) == other


class TestSchema:
    def test_golden_hashes(self):
        assert config_hash(parse_config("")) == "3079c6e05c2d"
        cfg = parse_config(
            ALL_KEYS + "mod0.low_energy = 9\nmod0.snr = 1.5\nmod1.high_energy = 3\n"
            "mod1.signal_band = high\n"
        )
        assert dump_config(cfg) == ALL_KEYS_DUMP
        assert config_hash(cfg) == "9b1a8289afac"

    def test_every_field_has_one_key(self):
        sections = {
            "train": TrainConfig,
            "spectral": SpectralConfig,
            "allocation": AllocationParams,
            "data": DataConfig,
        }
        exempt = {"spectral", "allocation", "specs"}
        for section, cls in sections.items():
            names = [f.name for f in fields(cls) if f.name not in exempt]
            keyed = [name for _, sec, name, _ in _KEYS if sec == section]
            assert sorted(keyed) == sorted(names), section
