import pytest

from freqbal.config import (
    DataConfig,
    RunConfig,
    config_hash,
    dump_config,
    load_config,
    parse_config,
    parse_kv,
    replace_train,
)
from freqbal.errors import ConfigError
from freqbal.intervention import TrainConfig
from freqbal.synthdata import imbalanced_specs


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

    def test_replace_train(self):
        cfg = parse_config("seed = 3\n")
        other = replace_train(cfg, mode="loss")
        assert other.train.mode == "loss"
        assert other.train.seed == 3
        assert other.data == cfg.data

    def test_replace_train_nested_and_invalid(self):
        cfg = parse_config("")
        other = replace_train(cfg, spectral={"q": 3}, allocation={"alpha": 1.2})
        assert (other.train.spectral.q, other.train.allocation.alpha) == (3, 1.2)
        assert other.train.spectral.p == cfg.train.spectral.p
        for bad in ({"spectral": {"q": 6}}, {"metric": "mp_cubed"}, {"eta": 0.0}):
            with pytest.raises(ConfigError):
                replace_train(cfg, **bad)
