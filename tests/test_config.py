import dataclasses
import inspect

import pytest

from paramdex.config import FIELDS, ExperimentConfig, load_config, parse_config_file
from paramdex.corpus import ingest_corpus
from paramdex.distributed import merge_runs, shard_retrieve
from paramdex.evalkit import evaluate
from paramdex.nn import EncoderConfig
from paramdex.pairs import generate_pretrain_pairs
from paramdex.runfiles import write_run
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


# keys that became constants (nn.BETA1, BETA2, ADAM_EPS, pairs.NGRAM_MIN_DF,
# the uniform task mix, the encoder always training, the shared two-tower
# encoder), each set here to its old default
@pytest.mark.parametrize("key, value", [
    ("beta1", "0.9"), ("beta2", "0.999"), ("adam_eps", "1e-8"), ("weight_passage", "1.0"),
    ("weight_terms", "1.0"), ("weight_ngram", "1.0"), ("ngram_min_df", "2"),
    ("freeze_encoder", "false"), ("separate_towers", "false"),
])
def test_removed_key_rejected(tmp_path, key, value):
    path = tmp_path / "exp.cfg"
    path.write_text(f"{key} = {value}\n")
    with pytest.raises(ValueError, match=f"^unknown config key '{key}'$"):
        load_config(path)


@pytest.mark.parametrize("key, value, shown", [
    ("lr", "-1", "-1.0"),
    ("d_model", "abc", "'abc'"),
    ("lr", "fast", "'fast'"),
    ("seed", "-1", "-1"),
], ids=["range", "int", "float", "seed"])
def test_invalid_value_rejected(key, value, shown):
    with pytest.raises(ValueError, match=f"^config key '{key}' has invalid value {shown}$"):
        ExperimentConfig({key: value})


@pytest.mark.parametrize("key", [k for k, field in FIELDS.items() if field[0] is float])
def test_float_value_must_be_finite(key):
    # inf passes the range checks of lr, weight_decay and plateau_min_delta
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


def test_derived_configs():
    cfg = ExperimentConfig({"d_model": "32", "n_heads": "2", "lr": "0.01"})
    enc = cfg.encoder_config(vocab_size=100)
    assert enc.d_model == 32 and enc.vocab_size == 100
    tc = cfg.train_config()
    assert tc.lr == 0.01 and tc.weight_decay == 0.01


# a valid value other than the default, by the default's type
_OTHER = {int: lambda d: d * 2 or 1, float: lambda d: d / 2}


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


# each key outside the dataclasses -> the library function and parameter it feeds
_LIBRARY_PARAMS = {
    "window": (generate_pretrain_pairs, "window"),
    "m_samples": (generate_pretrain_pairs, "m_samples"),
    "ngram_n": (generate_pretrain_pairs, "ngram_n"),
    "max_ngrams": (generate_pretrain_pairs, "max_ngrams"),
    "min_freq": (ingest_corpus, "min_freq"),
    "per_group_k": (shard_retrieve, "per_group_k"),
    "merge_mode": (merge_runs, "mode"),
    "mrr_cutoff": (evaluate, "cutoff"),
    "eval_ks": (evaluate, "ks"),
    "run_tag": (write_run, "tag"),
}


@pytest.mark.parametrize("key", sorted(_LIBRARY_PARAMS))
def test_key_default_is_the_library_default(key):
    # callers that take the library defaults, the benchmark's pair generation
    # among them, then run the setting the CLI runs by default
    func, param = _LIBRARY_PARAMS[key]
    default = inspect.signature(func).parameters[param].default
    cfg = ExperimentConfig()
    value = cfg.ks() if key == "eval_ks" else getattr(cfg, key)
    assert (value, type(value)) == (default, type(default))
