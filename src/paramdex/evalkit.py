"""Recall@k and MRR over ranked runs with single-positive qrels."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

from .corpus import read_qrels_file
from .runfiles import read_run

log = logging.getLogger(__name__)

DEFAULT_KS = (1, 20, 100)
DEFAULT_CUTOFF = 100


@dataclass
class MetricReport:
    metrics: dict[str, float]
    query_count: int

    def has_nan(self) -> bool:
        return any(math.isnan(v) for v in self.metrics.values())


def _check_qids(runs: dict, qrels: dict, what: str = "run contains qids missing from qrels") -> None:
    extra = sorted(q for q in runs if q not in qrels)
    if extra:
        raise ValueError(f"{what}: {extra[:10]}")


def _positive_rank(docids: list, positive) -> int:
    """1-based rank of the positive in a ranking, 0 when absent."""
    return docids.index(positive) + 1 if positive in docids else 0


def recall_at_k(runs: dict[str, list], qrels: dict, k: int) -> float:
    """Fraction of qrels queries whose positive appears in the run's top k.

    Queries in qrels but missing from the run count as misses.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_qids(runs, qrels)
    if not qrels:
        return float("nan")
    hits = sum(
        1 for qid, pos in qrels.items()
        if 0 < _positive_rank(runs.get(qid, [])[:k], pos)
    )
    return hits / len(qrels)


def mrr(runs: dict[str, list], qrels: dict, cutoff: int = DEFAULT_CUTOFF) -> float:
    """Mean reciprocal rank of the positive, zero beyond the cutoff."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    _check_qids(runs, qrels)
    if not qrels:
        return float("nan")
    total = 0.0
    for qid, pos in qrels.items():
        rank = _positive_rank(runs.get(qid, [])[:cutoff], pos)
        if rank:
            total += 1.0 / rank
    return total / len(qrels)


def evaluate(
    runs: dict[str, list],
    qrels: dict,
    ks: tuple[int, ...] = DEFAULT_KS,
    cutoff: int = DEFAULT_CUTOFF,
) -> MetricReport:
    if not runs and qrels:
        log.warning("empty run: all metrics are 0 over %d queries", len(qrels))
    metrics = {f"recall@{k}": recall_at_k(runs, qrels, k) for k in ks}
    metrics["mrr"] = mrr(runs, qrels, cutoff)
    return MetricReport(metrics, len(qrels))


def evaluate_run_file(
    run_path: str | Path,
    qrels_path: str | Path,
    ks: tuple[int, ...] = DEFAULT_KS,
    cutoff: int = DEFAULT_CUTOFF,
) -> MetricReport:
    runs = {qid: [docid for docid, _, _ in entries] for qid, entries in read_run(run_path).items()}
    qrels = read_qrels_file(qrels_path)
    _check_qids(runs, qrels, f"{run_path}: qids missing from {qrels_path}")
    return evaluate(runs, qrels, ks=ks, cutoff=cutoff)


def render_table(report: MetricReport) -> str:
    width = max(len(name) for name in report.metrics)
    lines = [f"{'queries':<{width}}  {report.query_count}"]
    for name, value in report.metrics.items():
        lines.append(f"{name:<{width}}  {value:.4f}")
    return "\n".join(lines) + "\n"


def render_csv(report: MetricReport) -> str:
    lines = ["metric,value"]
    for name, value in report.metrics.items():
        lines.append(f"{name},{value:.6f}")
    lines.append(f"queries,{report.query_count}")
    return "\n".join(lines) + "\n"
