"""Shared training-loop plumbing: the training config, batching and the
pre-training task mix. Each TrainConfig field is the config key
(config.FIELDS) of the same name and default."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .pairs import TrainingPair


@dataclass
class TrainConfig:
    lr: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.01
    batch_size: int = 32
    pretrain_epochs: int = 10
    finetune_epochs: int = 20
    plateau_patience: int = 3
    plateau_min_delta: float = 1e-4
    seed: int = 0
    # relative sampling weights of the pre-training tasks
    weight_passage: float = 1.0
    weight_terms: float = 1.0
    weight_ngram: float = 1.0
    freeze_encoder: bool = False
    separate_towers: bool = False  # two-tower baseline: untie the towers' weights


def stage_rng(seed: int, stage: int, epoch: int) -> np.random.Generator:
    """Independent, reproducible stream per (seed, stage, epoch)."""
    return np.random.default_rng(np.random.SeedSequence([seed, stage, epoch]))


def batches(items: Sequence, size: int) -> Iterator[list]:
    if size < 1:
        raise ValueError("batch_size must be >= 1")
    for i in range(0, len(items), size):
        yield list(items[i : i + size])


def mixed_task_epoch(
    pairs: Sequence[TrainingPair],
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> list[TrainingPair]:
    """Draw an epoch's worth of pre-training pairs, tasks mixed by weight.

    Each draw picks a task with probability proportional to its weight
    (cfg.weight_passage, weight_terms, weight_ngram; tasks with no pairs
    are dropped) and then a pair uniformly within the task, with
    replacement. There is one draw per available pair.
    """
    by_task: dict[str, list[TrainingPair]] = {}
    for p in pairs:
        by_task.setdefault(p.task, []).append(p)
    w = {"passage": cfg.weight_passage, "terms": cfg.weight_terms, "ngram": cfg.weight_ngram}
    tasks = [t for t in ("passage", "terms", "ngram") if by_task.get(t) and w[t] > 0]
    if not tasks:
        raise ValueError("no pre-training pairs available under the given task weights")
    probs = np.array([w[t] for t in tasks], dtype=np.float64)
    probs /= probs.sum()
    task_draws = rng.choice(len(tasks), size=len(pairs), p=probs)
    out = []
    for t_idx in task_draws:
        bucket = by_task[tasks[int(t_idx)]]
        out.append(bucket[int(rng.integers(len(bucket)))])
    return out


@dataclass
class EpochLog:
    stage: str
    epoch: int
    loss: float


def format_logs(logs: list[EpochLog]) -> str:
    return "".join(f"{e.stage}\t{e.epoch}\t{e.loss:.6f}\n" for e in logs)
