from __future__ import annotations

import numpy as np
import pytest

from paramdex.corpus import Corpus, build_vocabulary, tokenize
from paramdex.distributed import ShardRun, merge_runs
from paramdex.retriever import RankedList


def corpus_from_token_lists(token_lists, external_ids, clicks, vocab) -> Corpus:
    """A Corpus whose document i has the token ids token_lists[i]."""
    tokens = np.array([t for toks in token_lists for t in toks], dtype=np.int32)
    return Corpus(tokens, [len(t) for t in token_lists], list(external_ids), list(clicks), vocab)


def corpus_from_texts(texts, clicks=None, min_freq=1) -> Corpus:
    """Small in-memory corpus for tests; external ids are d0, d1, ..."""
    token_lists = [tokenize(t) for t in texts]
    vocab = build_vocabulary(token_lists, min_freq=min_freq)
    return corpus_from_token_lists([[vocab.lookup(t) for t in toks] for toks in token_lists],
                                   [f"d{i}" for i in range(len(texts))], clicks or [0] * len(texts), vocab)


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
