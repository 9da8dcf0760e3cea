"""Sharded retrieval: partition the corpus, retrieve per group, merge lists.

Each group owns an independently trained retriever over its slice of the
corpus. Raw-score merging pools the per-group lists' id and score arrays
and ranks them again with retriever.top_order, the one ranking routine for
every list, merged lists included. Since independently trained models put
their logits on different scales, the module also offers per-shard z-score
calibration (experimental) and a score-distribution diagnostic that makes
the scale mismatch visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, text_lines
from .retriever import DocidRetriever, RankedList, top_order

_STD_FLOOR = 1e-12


@dataclass
class ShardPlan:
    n_groups: int
    seed: int
    group_of: np.ndarray  # global docid -> group id
    groups: list[np.ndarray]  # group id -> sorted global docids; local id = position


@dataclass
class ShardRun:
    group: int
    ranked: RankedList  # global docids, raw logit scores


def _plan(where: str, n_docs: int, g: int, seed: int, owners) -> ShardPlan:
    """The plan that puts document d in group owners()[d]. A g outside
    [1, n_docs] is rejected before owners is called, and every group must
    have a document; errors start with where."""
    if g <= 0:
        raise ValueError(f"{where}: group count must be positive")
    if g > n_docs:
        raise ValueError(f"{where}: cannot split {n_docs} documents into {g} groups")
    group_of = owners()
    sizes = np.bincount(group_of, minlength=g)
    if not sizes.all():
        raise ValueError(f"{where}: group {int(np.argmin(sizes))} has no documents")
    # a stable sort keeps each group's docids ascending
    groups = np.split(np.argsort(group_of, kind="stable"), np.cumsum(sizes)[:-1])
    return ShardPlan(g, seed, group_of, groups)


def partition(n_docs: int, g: int, seed: int = 0) -> ShardPlan:
    """Uniform random assignment of documents to g groups, sizes within 1:
    a seeded permutation cut into g runs, the first n_docs % g one longer."""
    def owners() -> np.ndarray:
        base, extra = divmod(n_docs, g)
        group_of = np.empty(n_docs, dtype=np.int64)
        perm = np.random.default_rng(seed).permutation(n_docs)
        group_of[perm] = np.repeat(np.arange(g), base + (np.arange(g) < extra))
        return group_of
    return _plan("n_groups", n_docs, g, seed, owners)


def shard_retrieve(
    models: list[DocidRetriever],
    plan: ShardPlan,
    query,
    per_group_k: int = 100,
) -> list[ShardRun]:
    """Each group's top-k on its local docid space, remapped to global ids."""
    if len(models) != plan.n_groups:
        raise ValueError(f"expected {plan.n_groups} models, got {len(models)}")
    runs = []
    for gid, model in enumerate(models):
        local = model.retrieve(query, min(per_group_k, len(plan.groups[gid])))
        runs.append(ShardRun(gid, RankedList(local.qid, plan.groups[gid][local.ids], local.scores)))
    return runs


def _zscore(scores: np.ndarray) -> np.ndarray:
    """float64 scores standardized by their own mean and standard deviation."""
    scores = scores.astype(np.float64)
    if scores.size == 0:
        return scores
    std = scores.std()
    return (scores - scores.mean()) / (1.0 if std < _STD_FLOOR else std)


def merge_runs(runs: list[ShardRun], k: int, mode: str = "raw") -> RankedList:
    """Merge one query's shard runs into one top-k list; no runs give an empty list.

    A docid appearing in several lists keeps its best score, the earliest
    list's on a tie. raw ranks the pooled scores with top_order (ties by
    ascending docid). zscore first standardizes each list's scores by that
    list's mean and standard deviation, which makes the merge invariant to
    any positive affine rescaling of a single group's scores.
    """
    if mode not in ("raw", "zscore"):
        raise ValueError(f"unknown merge mode '{mode}'")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not runs:
        return RankedList("", np.empty(0, dtype=np.int64), np.empty(0))
    qids = {r.ranked.qid for r in runs}
    if len(qids) > 1:
        raise ValueError(f"shard runs mix qids: {sorted(qids)}")
    norm = _zscore if mode == "zscore" else lambda s: s
    ids = np.concatenate([r.ranked.ids for r in runs])
    scores = np.concatenate([norm(r.ranked.scores) for r in runs], dtype=np.float64)
    # by docid, best score first; the sort is stable, so a tie keeps list order
    order = np.lexsort((-scores, ids))
    ids, scores = ids[order], scores[order]
    first = np.ones(ids.size, dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    ids, scores = ids[first], scores[first]  # ascending docids: top_order's ties are ties by docid
    keep = top_order(scores, k)
    return RankedList(runs[0].ranked.qid, ids[keep], scores[keep])


def score_distribution_stats(scores_by_group: list[np.ndarray]) -> list[dict]:
    """Per-group statistics of all returned scores: mean/std/min/max/deciles."""
    if not scores_by_group:
        raise ValueError("no shard runs given")
    rows = []
    for gid, group_scores in enumerate(scores_by_group):
        scores = np.asarray(group_scores, dtype=np.float64)
        if scores.size == 0:
            raise ValueError(f"group {gid} returned no scores")
        deciles = np.percentile(scores, np.arange(10, 100, 10))
        rows.append({
            "group": gid,
            "mean": float(scores.mean()),
            "std": float(scores.std()),
            "min": float(scores.min()),
            "max": float(scores.max()),
            **{f"d{i}": float(deciles[i - 1]) for i in range(1, 10)},
        })
    return rows


def render_stats_csv(rows: list[dict]) -> str:
    cols = ["group", "mean", "std", "min", "max"] + [f"d{i}" for i in range(1, 10)]
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(
            str(r["group"]) if c == "group" else f"{r[c]:.6f}" for c in cols
        ))
    return "\n".join(lines) + "\n"


def mean_spread_ratio(rows: list[dict]) -> float:
    """Spread of group means relative to the average within-group std."""
    means = np.array([r["mean"] for r in rows])
    stds = np.array([r["std"] for r in rows])
    denom = float(stds.mean())
    spread = float(np.ptp(means))
    if denom < _STD_FLOOR:
        return float("inf") if spread > 0 else 0.0
    return spread / denom


def write_manifest(path: str | Path, plan: ShardPlan, corpus: Corpus) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# g={plan.n_groups} seed={plan.seed}\n")
        for gid, members in enumerate(plan.groups):
            for d in members:
                f.write(f"{gid}\t{corpus.external_id(int(d))}\n")


def read_manifest(path: str | Path, corpus: Corpus) -> ShardPlan:
    """Read a write_manifest file: each document of corpus in exactly one of
    g nonempty groups. Bad input raises ValueError naming the line, group or
    document."""
    lines = text_lines(path)
    where, header = next(lines, (f"{path} line 1", ""))
    header = header.strip()
    fields = dict(part.partition("=")[::2] for part in header[1:].split()) if header[:1] == "#" else {}
    try:
        g, seed = int(fields["g"]), int(fields["seed"])
    except (KeyError, ValueError):
        raise ValueError(f"{where}: expected the header '# g=<g> seed=<seed>'") from None

    def owners() -> np.ndarray:
        owner = [-1] * len(corpus)  # a list: numpy scalar indexing costs more per line
        for at, line in lines:
            gid_s, _, ext = line.strip().partition("\t")
            if not gid_s.removeprefix("-").isdecimal() or not ext or "\t" in ext:
                raise ValueError(f"{at}: expected 'gid<TAB>docid', got {line!r}")
            gid = int(gid_s)
            doc = corpus.by_external.get(ext)
            if doc is None:
                raise ValueError(f"{at}: unknown docid '{ext}'")
            if not 0 <= gid < g:
                raise ValueError(f"{at}: group id {gid} outside [0, {g})")
            if owner[doc] >= 0:
                raise ValueError(f"{at}: docid '{ext}' is already in group {owner[doc]}")
            owner[doc] = gid
        if -1 in owner:
            raise ValueError(f"{path}: docid '{corpus.external_id(owner.index(-1))}' is in no group")
        return np.array(owner, dtype=np.int64)
    return _plan(where, len(corpus), g, seed, owners)
