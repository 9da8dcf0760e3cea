from collections import Counter

import pytest

from paramdex.pairs import TrainingPair
from paramdex.training import mixed_task_epoch, stage_rng


def _pairs(tasks) -> list[TrainingPair]:
    return [TrainingPair([i + 1], i, t) for i, t in enumerate(tasks)]


def _positions(pairs, drawn) -> list[int]:
    """Where each drawn pair sits in pairs, by identity."""
    return [next(i for i, p in enumerate(pairs) if p is d) for d in drawn]


class TestMixedTaskEpoch:
    def test_empty_pairs_rejected_before_any_draw(self):
        rng = stage_rng(0, 2, 0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^mixed_task_epoch: no pre-training pairs to draw from$"):
            mixed_task_epoch([], rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("tasks", [["passage"], ["terms", "ngram"] * 3,
                                       ["passage"] * 5 + ["terms"] + ["ngram"] * 2])
    def test_one_draw_per_pair(self, tasks):
        pairs = _pairs(tasks)
        drawn = mixed_task_epoch(pairs, stage_rng(0, 2, 0))
        assert len(drawn) == len(pairs)
        assert set(_positions(pairs, drawn)) <= set(range(len(pairs)))

    def test_only_tasks_with_pairs_are_drawn(self):
        # one ngram pair among 40 terms pairs still gets about half the draws
        pairs = _pairs(["terms"] * 40 + ["ngram"])
        drawn = Counter(p.task for p in mixed_task_epoch(pairs, stage_rng(3, 2, 0)))
        assert set(drawn) == {"terms", "ngram"}
        assert 10 <= drawn["ngram"] <= 31

    @pytest.mark.parametrize("tasks, expected", [
        (["passage", "terms", "ngram", "passage", "terms", "passage", "ngram", "passage"],
         [2, 1, 5, 1, 5, 0, 7, 1]),
        (["passage", "ngram", "ngram"], [1, 2, 0]),
    ], ids=["three_tasks", "two_tasks"])
    def test_draw_sequence_is_pinned(self, tasks, expected):
        # recorded when the task mix was still three weights of 1.0: a uniform
        # mix over the tasks that have pairs makes the same draws
        pairs = _pairs(tasks)
        assert _positions(pairs, mixed_task_epoch(pairs, stage_rng(5, 2, 1))) == expected
