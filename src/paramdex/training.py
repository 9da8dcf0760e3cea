"""Shared training-loop plumbing: the training config, batching and the
pre-training task mix. Each TrainConfig field is the config key
(config.FIELDS) of the same name and default. No field selects what
trains: every stage trains all of its model's parameters."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .pairs import PRETRAIN_TASKS, TrainingPair


@dataclass
class TrainConfig:
    lr: float = 5e-5
    weight_decay: float = 0.01
    batch_size: int = 32
    pretrain_epochs: int = 10
    finetune_epochs: int = 20
    plateau_patience: int = 3
    plateau_min_delta: float = 1e-4
    seed: int = 0


def stage_rng(seed: int, stage: int, epoch: int) -> np.random.Generator:
    """Independent, reproducible stream per (seed, stage, epoch)."""
    return np.random.default_rng(np.random.SeedSequence([seed, stage, epoch]))


def batches(items: Sequence, size: int) -> Iterator[list]:
    if size < 1:
        raise ValueError("batch_size must be >= 1")
    for i in range(0, len(items), size):
        yield list(items[i : i + size])


def mixed_task_epoch(pairs: Sequence[TrainingPair], rng: np.random.Generator) -> list[TrainingPair]:
    """Draw an epoch's worth of pre-training pairs, one draw per pair.

    Each draw picks a task uniformly among the tasks that have pairs and
    then a pair uniformly within the task, with replacement. Empty pairs
    are a ValueError, raised before any draw. Every pair's task must be one
    of PRETRAIN_TASKS, as train_vanilla checks before pre-training.
    """
    if not pairs:
        raise ValueError("mixed_task_epoch: no pre-training pairs to draw from")
    by_task: dict[str, list[TrainingPair]] = {}
    for p in pairs:
        by_task.setdefault(p.task, []).append(p)
    tasks = [t for t in PRETRAIN_TASKS if t in by_task]
    task_draws = rng.choice(len(tasks), size=len(pairs), p=np.full(len(tasks), 1.0 / len(tasks)))
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
