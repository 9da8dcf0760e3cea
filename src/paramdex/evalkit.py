"""Recall@k and MRR over ranked runs with single-positive qrels.

`evaluate` finds each query's positive rank once, and every metric reads
those ranks. The MRR adds its reciprocals one by one in qrels order, so
its last bit does not depend on the Python version: `sum()` of floats
rounds differently from Python 3.12 on.
"""

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


def evaluate(
    runs: dict[str, list],
    qrels: dict,
    ks: tuple[int, ...] = DEFAULT_KS,
    cutoff: int = DEFAULT_CUTOFF,
) -> MetricReport:
    """Recall@k for each k and MRR within the cutoff, over the qrels queries.

    Queries in qrels but missing from the run count as misses.
    """
    if not runs and qrels:
        log.warning("empty run: all metrics are 0 over %d queries", len(qrels))
    if any(k < 1 for k in ks):
        raise ValueError("k must be >= 1")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    _check_qids(runs, qrels)
    if not qrels:
        return MetricReport(dict.fromkeys([*(f"recall@{k}" for k in ks), "mrr"], float("nan")), 0)
    ranks = []  # 1-based rank of each query's positive, 0 when absent
    for qid, pos in qrels.items():
        docids = runs.get(qid, [])
        ranks.append(docids.index(pos) + 1 if pos in docids else 0)
    metrics = {f"recall@{k}": sum(1 for r in ranks if 0 < r <= k) / len(qrels) for k in ks}
    total = 0.0
    for r in ranks:  # not sum(): from Python 3.12 it compensates float rounding
        if 0 < r <= cutoff:
            total += 1.0 / r
    metrics["mrr"] = total / len(qrels)
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
