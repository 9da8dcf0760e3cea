"""Shared training-loop plumbing: config, batching, plateau stopping."""

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
    eps: float = 1e-8
    weight_decay: float = 0.01
    batch_size: int = 32
    pretrain_epochs: int = 10
    finetune_epochs: int = 20
    plateau_patience: int = 3
    plateau_min_delta: float = 1e-4
    seed: int = 0
    # relative sampling weights for the passage / terms / ngram tasks
    task_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    freeze_encoder: bool = False


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
    weights: tuple[float, float, float],
    rng: np.random.Generator,
) -> list[TrainingPair]:
    """Draw an epoch's worth of pre-training pairs, tasks mixed by weight.

    Each draw picks a task with probability proportional to its weight
    (tasks with no pairs are dropped) and then a pair uniformly within the
    task, with replacement. There is one draw per available pair.
    """
    by_task: dict[str, list[TrainingPair]] = {}
    for p in pairs:
        by_task.setdefault(p.task, []).append(p)
    w = {"passage": weights[0], "terms": weights[1], "ngram": weights[2]}
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


class PlateauStopper:
    """Stop a stage once the epoch loss stops improving.

    An epoch "improves" when its loss beats the best seen by at least
    min_delta; `patience` consecutive non-improving epochs trigger a stop.
    """

    def __init__(self, min_delta: float = 1e-4, patience: int = 3):
        self.min_delta = min_delta
        self.patience = patience
        self.best = float("inf")
        self.bad = 0

    def update(self, loss: float) -> bool:
        """Record an epoch loss; returns True when training should stop."""
        if loss < self.best - self.min_delta:
            self.bad = 0
        else:
            self.bad += 1
        self.best = min(self.best, loss)
        return self.bad >= self.patience


@dataclass
class EpochLog:
    stage: str
    epoch: int
    loss: float


def format_logs(logs: list[EpochLog]) -> str:
    return "".join(f"{e.stage}\t{e.epoch}\t{e.loss:.6f}\n" for e in logs)
