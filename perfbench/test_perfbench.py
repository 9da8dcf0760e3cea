"""The benchmark's own tests, at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paramdex import baselines, retriever
from perfbench import bench, oracles
from perfbench.tracing import Tracer, self_times

ROOT = Path(__file__).resolve().parents[1]
# workload sizes that run in seconds, not minutes
TINY_SIZES = {
    "pretrain": {"n_docs": 16, "n_train": 6, "n_heldout": 8, "train_pairs": 64,
                 "pretrain_epochs": 1, "finetune_epochs": 2},
    "dense": {"n_docs": 24, "n_train": 10, "n_heldout": 10,
              "two_tower_epochs": 2, "finetune_epochs": 2},
    "retrieve": {"n_docs": 240, "n_train": 10, "n_heldout": 40, "n_groups": 4,
                 "model_queries": 20, "bm25_queries": 30, "shard_queries": 10},
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTERS = [
    "nn.pad_fill", "nn.attn_fill", "pairs.count.passage", "pairs.count.terms", "pairs.count.ngram",
    "pairs.term_draw_work", "retriever.scored_cells", "baselines.postings_scanned",
    "distributed.merge_candidates", "training.epochs_run",
]


def _run(root, workload, trace, seed=3):
    return bench.run_benchmark(workload, seed, 0.0, trace, root, TINY_SIZES[workload])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    return {(w, t): _run(root, w, t) for w in TINY_SIZES for t in (False, True)}


def test_spec_matches_the_metrics_the_runner_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(TINY_SIZES)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == bench.per_layer_metrics()


@pytest.mark.parametrize("workload", list(TINY_SIZES))
def test_every_metric_appears_with_its_unit(runs, workload):
    for trace, spec in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        result, _ = runs[workload, trace]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    e2e = runs[workload, False][0]["metrics"]
    assert all(v["value"] > 0 for v in e2e.values())


@pytest.mark.parametrize("workload", list(TINY_SIZES))
def test_exact_counters_repeat_across_runs(runs, workload, tmp_path):
    first = runs[workload, True][0]["metrics"]
    again = _run(tmp_path, workload, True)[0]["metrics"]
    assert {k: first[k]["value"] for k in EXACT_COUNTERS} == {k: again[k]["value"] for k in EXACT_COUNTERS}
    assert first["trace.missing_spans"]["value"] == 0


@pytest.mark.parametrize("workload", list(TINY_SIZES))
def test_traced_and_untraced_runs_write_identical_artifacts(runs, workload):
    untraced, traced = runs[workload, False][1], runs[workload, True][1]
    assert traced["passes"]["traced"] >= 1
    assert untraced["outputs"] == traced["outputs"]
    assert workload == "retrieve" or "loss_log" in untraced["outputs"]


def _swap_first_two(ranked):
    rl = ranked[0]
    rl.items[0], rl.items[1] = rl.items[1], rl.items[0]
    return ranked


def test_oracle_catches_a_corrupted_model_ranking(tmp_path, monkeypatch):
    original = retriever.DocidRetriever.retrieve_all

    def corrupt(self, queries, k):
        return _swap_first_two(original(self, queries, k))

    monkeypatch.setattr(retriever.DocidRetriever, "retrieve_all", corrupt)
    result, report = _run(tmp_path, "retrieve", False)
    assert not result["correct"] and result["failed"] >= 2  # order check and lexsort oracle
    assert any("model" in e for e in report["errors"])


def test_oracle_catches_a_corrupted_bm25_ranking(tmp_path, monkeypatch):
    original = baselines.bm25_retrieve

    def corrupt(index, query, k):
        rl = original(index, query, k)
        rl.items[0] = (rl.items[0][0], rl.items[0][1] * 1.01)
        return rl

    monkeypatch.setattr(baselines, "bm25_retrieve", corrupt)
    result, report = _run(tmp_path, "retrieve", False)
    assert not result["correct"]
    assert any("bm25 brute force" in e for e in report["errors"])


def test_rankings_agree_tolerates_rounding_and_tie_swaps():
    want = [(4, 3.0), (1, 2.0), (2, 2.0), (0, 1.0)]
    assert oracles.rankings_agree([(4, 3.0), (2, 2.0 + 1e-9), (1, 2.0), (0, 1.0)], want) is None
    assert oracles.rankings_agree([(4, 3.0), (1, 2.0), (0, 1.0), (2, 2.0)], want) is not None
    assert oracles.lexsort_top_k(np.array([1.0, 2.0, 2.0, 0.5]), 3) == [(1, 2.0), (2, 2.0), (0, 1.0)]


def test_merge_oracle_rejects_a_docid_from_the_wrong_group():
    group_of = np.array([0, 1, 0, 1])
    merged = [(1, 0.9), (0, 0.5)]
    assert oracles.merge_problem([(0, [(0, 0.5)]), (1, [(1, 0.9)])], group_of, merged, 2) is None
    swapped = [(0, [(1, 0.9)]), (1, [(0, 0.5)])]
    assert "belongs to group" in oracles.merge_problem(swapped, group_of, merged, 2)


def test_tracer_self_time_and_missing_shim():
    class Owner:
        @staticmethod
        def work():
            return 1

    tr = Tracer()
    tr.install([(Owner, "work", "owner.work", None), (Owner, "gone", "owner.gone", None)])
    with tr.span("outer"):
        assert Owner.work() == 1
    tr.uninstall()
    assert tr.missing == ["owner.gone"] and not tr.active
    agg = self_times(tr.spans)
    outer, inner = tr.spans[0], tr.spans[1]
    assert inner[3] == 0
    assert agg["outer"]["self_s"] == pytest.approx((outer[2] - outer[1]) - (inner[2] - inner[1]))
    assert Owner.__dict__["work"].__func__() == 1  # the original is back


def test_run_fails_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "pretrain", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
