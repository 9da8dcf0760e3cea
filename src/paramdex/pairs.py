"""Self-supervised (term sequence -> docid) training pair construction.

Three pair sources: fixed-window passages, importance-sampled term sets,
and n-grams shared across documents. Supervised query pairs reuse the same
record type. Pairs persist as ``task \\t external_docid \\t tokens`` lines.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, Document, Query, text_lines

log = logging.getLogger(__name__)

TASKS = ("passage", "terms", "ngram", "query")

# sampled term-set length bounds
MIN_TERM_SAMPLE = 10
MAX_TERM_SAMPLE = 512


@dataclass
class TrainingPair:
    tokens: list[int]
    target: int  # internal docid
    task: str


def segment_passages(doc: Document, window: int) -> list[TrainingPair]:
    """Split a document into consecutive non-overlapping windows.

    Emits ceil(len/window) pairs; the final passage may be shorter than the
    window. Concatenating the passages reproduces the document exactly.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    return [
        TrainingPair(doc.tokens[i : i + window], doc.internal_id, "passage")
        for i in range(0, len(doc.tokens), window)
    ]


def document_frequencies(corpus: Corpus) -> np.ndarray:
    """Per-token-id document frequency over the whole corpus."""
    df = np.zeros(len(corpus.vocab), dtype=np.int64)
    for doc in corpus.docs:
        for t in set(doc.tokens):
            df[t] += 1
    return df


def term_importance(doc: Document, corpus: Corpus, df: np.ndarray | None = None) -> dict[int, float]:
    """TF-IDF weight per distinct token of the document.

    weight = tf(token, doc) * ln(1 + |D| / df(token)). Keys are ordered by
    first occurrence in the document.
    """
    if df is None:
        df = document_frequencies(corpus)
    n_docs = len(corpus)
    counts: dict[int, int] = {}
    for t in doc.tokens:
        counts[t] = counts.get(t, 0) + 1
    return {t: c * float(np.log(1.0 + n_docs / df[t])) for t, c in counts.items()}


def _weighted_sample_without_replacement(
    items: list[int], weights: np.ndarray, k: int, rng: np.random.Generator
) -> list[int]:
    """Draw k distinct items sequentially with probability proportional to weight."""
    w = weights.astype(np.float64).copy()
    if not np.any(w > 0):
        w = np.ones_like(w)
    out: list[int] = []
    for _ in range(k):
        cum = np.cumsum(w)
        u = rng.random() * cum[-1]
        idx = int(np.searchsorted(cum, u, side="right"))
        out.append(items[idx])
        w[idx] = 0.0
    return out


def sample_term_sets(
    doc: Document, m: int, weights: dict[int, float], rng: np.random.Generator
) -> list[TrainingPair]:
    """Draw m term sets from a document's distinct tokens by importance.

    Each set's length is uniform over [10, min(512, n_distinct)]; documents
    with fewer than 10 distinct tokens contribute all of them. Tokens are
    sampled without replacement and kept in sampled order.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    items = list(weights.keys())
    w = np.array([weights[t] for t in items], dtype=np.float64)
    n_distinct = len(items)
    pairs = []
    for _ in range(m):
        if n_distinct < MIN_TERM_SAMPLE:
            length = n_distinct
        else:
            hi = min(MAX_TERM_SAMPLE, n_distinct)
            length = int(rng.integers(MIN_TERM_SAMPLE, hi + 1))
        sampled = _weighted_sample_without_replacement(items, w, length, rng)
        pairs.append(TrainingPair(sampled, doc.internal_id, "terms"))
    return pairs


def extract_ngram_pairs(
    corpus: Corpus, n: int, min_df: int, max_ngrams: int
) -> list[TrainingPair]:
    """Select shared n-grams and pair each with every document containing it.

    Keeps up to max_ngrams distinct n-grams with document frequency >=
    min_df, preferring higher document frequency (ties broken by the
    lexicographic order of the n-gram's token strings). An n-gram found in
    m documents yields m pairs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_ngrams < 0:
        raise ValueError("max_ngrams must be >= 0")
    containing: dict[tuple[int, ...], list[int]] = {}
    for doc in corpus.docs:
        toks = doc.tokens
        grams = {tuple(toks[i : i + n]) for i in range(len(toks) - n + 1)}
        for g in grams:
            containing.setdefault(g, []).append(doc.internal_id)
    vocab = corpus.vocab
    eligible = [(g, docs) for g, docs in containing.items() if len(docs) >= min_df]
    eligible.sort(key=lambda e: (-len(e[1]), tuple(vocab.token(t) for t in e[0])))
    pairs: list[TrainingPair] = []
    for g, docs in eligible[:max_ngrams]:
        for d in docs:  # ascending internal id by construction
            pairs.append(TrainingPair(list(g), d, "ngram"))
    return pairs


def query_pairs(queries: list[Query], qrels: dict[str, int]) -> list[TrainingPair]:
    """Supervised (query tokens -> positive docid) pairs for fine-tuning."""
    pairs = []
    skipped = 0
    for q in queries:
        if q.qid not in qrels:
            continue
        if not q.tokens:
            skipped += 1
            continue
        pairs.append(TrainingPair(q.tokens, qrels[q.qid], "query"))
    if skipped:
        log.warning("%d labeled queries had no in-vocabulary tokens, skipped", skipped)
    return pairs


def generate_pretrain_pairs(
    corpus: Corpus,
    window: int = 128,
    m_samples: int = 10,
    ngram_n: int = 3,
    ngram_min_df: int = 2,
    max_ngrams: int | None = None,
    seed: int = 0,
) -> list[TrainingPair]:
    """All three self-supervised pair kinds for the corpus, deterministically.

    Term-set sampling uses a per-document generator seeded from
    (seed, internal_id), so generation is order-independent and
    reproducible. max_ngrams defaults to 10 * |D|.
    """
    if max_ngrams is None:
        max_ngrams = 10 * len(corpus)
    df = document_frequencies(corpus)
    pairs: list[TrainingPair] = []
    for doc in corpus.docs:
        pairs.extend(segment_passages(doc, window))
        rng = np.random.default_rng(np.random.SeedSequence([seed, doc.internal_id]))
        weights = term_importance(doc, corpus, df=df)
        pairs.extend(sample_term_sets(doc, m_samples, weights, rng))
    pairs.extend(extract_ngram_pairs(corpus, ngram_n, ngram_min_df, max_ngrams))
    return pairs


def save_pairs(path: str | Path, pairs: list[TrainingPair], corpus: Corpus) -> None:
    vocab = corpus.vocab
    with open(path, "w", encoding="utf-8") as f:
        for p in pairs:
            text = " ".join(vocab.token(t) for t in p.tokens)
            f.write(f"{p.task}\t{corpus.external_id(p.target)}\t{text}\n")


def load_pairs(path: str | Path, corpus: Corpus) -> list[TrainingPair]:
    pairs: list[TrainingPair] = []
    for where, line in text_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{where}: expected 3 tab-separated fields")
        task, ext, text = parts
        if task not in TASKS:
            raise ValueError(f"{where}: unknown task '{task}'")
        if ext not in corpus.by_external:
            raise ValueError(f"{where}: pair targets unknown docid '{ext}'")
        tokens = [corpus.vocab.lookup(t) for t in text.split(" ") if t]
        if not tokens:
            raise ValueError(f"{where}: pair has no tokens")
        pairs.append(TrainingPair(tokens, corpus.by_external[ext], task))
    return pairs
