"""Flat key/value experiment configuration.

A config file is ``key = value`` lines (``#`` starts a comment), and it is
the only way to set a key: no command-line flag overrides one. Every key is
listed in FIELDS below with its type, default and valid range (a float must
also be finite); unknown keys are rejected. Each field of TrainConfig, and
of EncoderConfig but vocab_size, is the key of the same name and default.
AdamW's betas, epsilon and weight decay (nn.BETA1, BETA2, ADAM_EPS,
WEIGHT_DECAY), the n-gram order and document-frequency floor
(pairs.NGRAM_N, NGRAM_MIN_DF), the uniform pre-training task mix and the
run files' tag (cli.RUN_TAG) are constants, not keys, and so is the
training setup: ingest keeps every token, every docid stage trains the
encoder with the docid matrix, and the two-tower towers are one shared
encoder. Input paths are flags, not config keys. The resolved config
hashes to a short hex digest that is stamped into every artifact's
sidecar, so artifacts are traceable to the exact settings and seed that
produced them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import fields
from pathlib import Path

from .corpus import text_lines
from .nn import EncoderConfig
from .training import TrainConfig


def _pos(x):  # > 0
    return x > 0


def _nonneg(x):  # >= 0
    return x >= 0


# Encoder and training defaults are the dataclasses' own (class attributes).
_E, _T = EncoderConfig, TrainConfig

# name -> (parser, default, validator or None, description)
FIELDS: dict[str, tuple] = {
    "d_model": (int, _E.d_model, _pos, "encoder width"),
    "n_layers": (int, _E.n_layers, _pos, "encoder depth"),
    "n_heads": (int, _E.n_heads, _pos, "attention heads (must divide d_model)"),
    "d_ff": (int, _E.d_ff, _pos, "feed-forward width"),
    "max_len": (int, _E.max_len, lambda x: x > 1, "max sequence length incl. CLS"),
    "window": (int, 128, _pos, "passage window size"),
    "m_samples": (int, 10, _pos, "term-set samples per document"),
    "lr": (float, _T.lr, _pos, "AdamW learning rate"),
    "batch_size": (int, _T.batch_size, _pos, "training batch size"),
    "pretrain_epochs": (int, _T.pretrain_epochs, _nonneg, "max pre-training epochs"),
    "finetune_epochs": (int, _T.finetune_epochs, _nonneg, "max fine-tuning epochs"),
    "plateau_patience": (int, _T.plateau_patience, _nonneg,
                         "epochs without improvement before stop (0 = never stop)"),
    "plateau_min_delta": (float, _T.plateau_min_delta, _nonneg, "loss improvement threshold"),
    "seed": (int, _T.seed, _nonneg, "master random seed"),
    "n_groups": (int, 4, _pos, "shard count"),
    "per_group_k": (int, 100, _pos, "per-shard retrieval depth"),
    "merge_mode": (str, "raw", lambda s: s in ("raw", "zscore"), "shard merge mode"),
    "k": (int, 100, _pos, "retrieval depth"),
    "mrr_cutoff": (int, 100, _pos, "MRR rank cutoff"),
    "eval_ks": (str, "1,20,100", None, "comma-separated recall cutoffs"),
}


class ExperimentConfig:
    """Resolved configuration: the defaults overlaid with a config file's values."""

    def __init__(self, values: dict | None = None):
        for name, (_, default, _, _) in FIELDS.items():
            setattr(self, name, default)
        for key, value in (values or {}).items():
            if key not in FIELDS:
                raise ValueError(f"unknown config key '{key}'")
            if isinstance(value, str):
                try:
                    value = FIELDS[key][0](value)
                except ValueError:
                    raise ValueError(f"config key '{key}' has invalid value {value!r}") from None
            setattr(self, key, value)
        self.validate()

    def validate(self) -> None:
        for name, (parse, _, check, _) in FIELDS.items():
            value = getattr(self, name)
            if (check is not None and not check(value)) or (parse is float and not math.isfinite(value)):
                raise ValueError(f"config key '{name}' has invalid value {value!r}")
        self.encoder_config(1)  # EncoderConfig's own checks: n_heads divides d_model
        try:
            self.ks()
        except ValueError as e:
            raise ValueError(f"config key 'eval_ks' has invalid value {self.eval_ks!r}: {e}") from None

    def ks(self) -> tuple[int, ...]:
        ks = tuple(int(x) for x in self.eval_ks.split(","))
        if not ks or any(k < 1 for k in ks):
            raise ValueError("cutoffs must be positive integers")
        return ks

    def resolved(self) -> dict:
        return {name: getattr(self, name) for name in FIELDS}

    def config_hash(self) -> str:
        text = "".join(f"{k}={v!r}\n" for k, v in sorted(self.resolved().items()))
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def encoder_config(self, vocab_size: int) -> EncoderConfig:
        return EncoderConfig(vocab_size, **{f.name: getattr(self, f.name)
                                            for f in fields(EncoderConfig) if f.name != "vocab_size"})

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})


def parse_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for where, line in text_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:  # a comment
            continue
        if "=" not in line:
            raise ValueError(f"{where}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ValueError(f"{where}: duplicate key '{key}'")
        values[key] = value
    return values


def load_config(path: str | Path | None) -> ExperimentConfig:
    return ExperimentConfig(parse_config_file(path) if path else None)
