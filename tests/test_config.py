import dataclasses

import pytest

from paramdex.config import FIELDS, ExperimentConfig, load_config, parse_config_file
from paramdex.nn import EncoderConfig
from paramdex.training import TrainConfig


def test_defaults_are_valid():
    cfg = ExperimentConfig()
    cfg.validate()
    assert cfg.lr == 5e-5
    assert cfg.d_model == 64 and cfg.n_layers == 2 and cfg.n_heads == 4
    assert cfg.ks() == (1, 20, 100)
    assert cfg.mrr_cutoff == 100


def test_parse_file_and_override(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# experiment\n"
        "lr = 0.001\n"
        "batch_size = 8   # small\n"
        "merge_mode = zscore\n"
    )
    cfg = load_config(path, {"seed": 42})
    assert cfg.lr == 0.001
    assert cfg.batch_size == 8
    assert cfg.merge_mode == "zscore"
    assert cfg.seed == 42


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("learning_rate = 0.1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(path)


@pytest.mark.parametrize("key", ["corpus_dir", "queries", "qrels"])
def test_input_paths_are_flags_not_config_keys(tmp_path, key):
    path = tmp_path / "exp.cfg"
    path.write_text(f"{key} = somewhere\n")
    with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
        load_config(path)


@pytest.mark.parametrize("key, value, shown", [
    ("lr", "-1", "-1.0"),
    ("d_model", "abc", "'abc'"),
    ("lr", "fast", "'fast'"),
    ("freeze_encoder", "maybe", "'maybe'"),
], ids=["range", "int", "float", "bool"])
def test_invalid_value_rejected(key, value, shown):
    with pytest.raises(ValueError, match=f"^config key '{key}' has invalid value {shown}$"):
        ExperimentConfig({key: value})


@pytest.mark.parametrize("key", [k for k, field in FIELDS.items() if field[0] is float])
def test_float_value_must_be_finite(key):
    # inf passes the range checks of lr, adam_eps and the weights
    with pytest.raises(ValueError, match=f"^config key '{key}' has invalid value inf$"):
        ExperimentConfig({key: "inf"})


def test_heads_must_divide_width():
    with pytest.raises(ValueError, match="divisible"):
        ExperimentConfig({"d_model": "50", "n_heads": "4"})


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("lr = 0.1\nlr = 0.2\n")
    with pytest.raises(ValueError, match="duplicate key"):
        parse_config_file(path)


def test_bad_line_rejected(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_config_file(path)


def test_hash_is_stable_and_sensitive():
    a = ExperimentConfig()
    b = ExperimentConfig()
    assert a.config_hash() == b.config_hash()
    b.update({"seed": 1})
    assert a.config_hash() != b.config_hash()


def test_bool_parsing():
    cfg = ExperimentConfig({"freeze_encoder": "true", "separate_towers": "0"})
    assert cfg.freeze_encoder is True
    assert cfg.separate_towers is False
    with pytest.raises(ValueError):
        ExperimentConfig({"freeze_encoder": "maybe"})


def test_derived_configs():
    cfg = ExperimentConfig({"d_model": "32", "n_heads": "2", "lr": "0.01"})
    enc = cfg.encoder_config(vocab_size=100)
    assert enc.d_model == 32 and enc.vocab_size == 100
    tc = cfg.train_config()
    assert tc.lr == 0.01 and (tc.weight_passage, tc.weight_terms, tc.weight_ngram) == (1.0, 1.0, 1.0)


# a valid value other than the default, by the default's type
_OTHER = {bool: lambda d: not d, int: lambda d: d * 2 or 1, float: lambda d: d / 2}


@pytest.mark.parametrize("cls, build", [
    (TrainConfig, ExperimentConfig.train_config),
    (EncoderConfig, lambda cfg: cfg.encoder_config(vocab_size=100)),
], ids=["TrainConfig", "EncoderConfig"])
def test_dataclass_fields_are_config_keys(cls, build):
    defaults = build(ExperimentConfig())
    for f in dataclasses.fields(cls):
        if f.name == "vocab_size":  # set by the corpus, not the config
            continue
        assert f.name in FIELDS, f"{cls.__name__}.{f.name} is not a config key"
        default = FIELDS[f.name][1]
        # same value and type, so the config hash of a default config is unchanged
        assert (default, type(default)) == (f.default, type(f.default)), f.name
        value = _OTHER[type(default)](default)
        got = build(ExperimentConfig({f.name: str(value)}))
        assert got == dataclasses.replace(defaults, **{f.name: value}), f.name
