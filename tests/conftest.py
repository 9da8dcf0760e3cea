from __future__ import annotations

import numpy as np
import pytest

from paramdex.corpus import Corpus, Document, build_vocabulary, tokenize
from paramdex.distributed import ShardRun, merge_runs
from paramdex.retriever import RankedList


def corpus_from_texts(texts, clicks=None, min_freq=1) -> Corpus:
    """Small in-memory corpus for tests; external ids are d0, d1, ..."""
    token_lists = [tokenize(t) for t in texts]
    vocab = build_vocabulary(token_lists, min_freq=min_freq)
    clicks = clicks or [0] * len(texts)
    docs = [
        Document(i, f"d{i}", [vocab.lookup(t) for t in toks], clicks[i])
        for i, toks in enumerate(token_lists)
    ]
    return Corpus(docs, vocab)


def as_pairs(ids, scores) -> list[tuple[int, float]]:
    """A ranked list's docid and score arrays as (docid, score) Python pairs."""
    return list(zip(ids.tolist(), scores.tolist()))


def ranked_list(qid: str, items) -> RankedList:
    """RankedList of (docid, score) pairs: int64 docids, float64 scores."""
    return RankedList(qid, np.array([d for d, _ in items], dtype=np.int64),
                      np.array([s for _, s in items], dtype=np.float64))


def merged_items(lists, k: int, mode: str = "raw") -> list[tuple[int, float]]:
    """merge_runs of one query's per-group (docid, score) lists, as pairs."""
    runs = [ShardRun(g, ranked_list("q", items)) for g, items in enumerate(lists)]
    return merge_runs(runs, k, mode).items


@pytest.fixture
def tiny_corpus() -> Corpus:
    return corpus_from_texts([
        "apple banana apple cherry",
        "banana banana date",
        "cherry date apple banana fig",
    ])
