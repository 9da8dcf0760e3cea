"""Self-supervised (term sequence -> docid) training pair construction.

Three pair sources: fixed-window passages, importance-sampled term sets,
and n-grams shared across documents. Supervised query pairs reuse the same
record type. Pairs persist as ``task \\t external_docid \\t tokens`` lines.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from .corpus import Corpus, Query, text_lines, valid_id

log = logging.getLogger(__name__)

# the tasks of a pairs file, which pre-training draws from (query pairs come from qrels)
PRETRAIN_TASKS = ("passage", "terms", "ngram")

# sampled term-set length bounds
MIN_TERM_SAMPLE = 10
MAX_TERM_SAMPLE = 512

# the n-gram order, and the documents an n-gram must occur in to be paired
NGRAM_N = 3
NGRAM_MIN_DF = 2


@dataclass
class TrainingPair:
    tokens: list[int]
    target: int  # internal docid
    task: str


def segment_passages(tokens: list[int], target: int, window: int) -> list[TrainingPair]:
    """Split a document's tokens into consecutive non-overlapping windows.

    Emits ceil(len/window) pairs; the final passage may be shorter than the
    window. Concatenating the passages reproduces the document exactly.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    return [
        TrainingPair(tokens[i : i + window], target, "passage")
        for i in range(0, len(tokens), window)
    ]


def document_frequencies(corpus: Corpus) -> np.ndarray:
    """Per-token-id document frequency over the whole corpus."""
    df = np.zeros(len(corpus.vocab), dtype=np.int64)
    for doc in corpus.docs:
        df[list(set(doc.tokens.tolist()))] += 1
    return df


def term_importance(tokens: list[int], n_docs: int, df: np.ndarray) -> dict[int, float]:
    """TF-IDF weight per distinct token of a document of a corpus of n_docs.

    weight = tf(token, doc) * ln(1 + |D| / df(token)), df being the corpus's
    document_frequencies. Keys are ordered by first occurrence in the document.
    """
    counts: dict[int, int] = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    return {t: c * float(np.log(1.0 + n_docs / df[t])) for t, c in counts.items()}


def weighted_sample_without_replacement(
    items: list, weights: np.ndarray, k: int, rng: np.random.Generator
) -> list:
    """Draw k distinct items sequentially with probability proportional to weight.

    Weights must be finite and non-negative, one per item, and k at most the
    number of positive weights; when every weight is zero the draw is uniform
    over all items. Each draw scales one uniform from rng by the weight left
    and bisects the running sums on Python floats: the additions and
    comparisons of ``np.cumsum`` and ``np.searchsorted(side="right")``,
    without their per-call cost on the short lists drawn here.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(items),):
        raise ValueError(f"{w.size} weights for {len(items)} items")
    if not (np.isfinite(w).all() and (w >= 0).all()):
        raise ValueError("weights must be finite and non-negative")
    n_positive = int(np.count_nonzero(w))
    limit = n_positive or len(items)
    if not 0 <= k <= limit:
        raise ValueError(f"k = {k} is outside [0, {limit}], the number of items that can be drawn")
    weight = w.tolist() if n_positive else [1.0] * len(items)
    out: list = []
    for u in rng.random(k).tolist():
        cum = list(accumulate(weight))
        idx = bisect_right(cum, u * cum[-1])
        out.append(items[idx])
        weight[idx] = 0.0
    return out


def sample_term_sets(
    target: int, m: int, weights: dict[int, float], rng: np.random.Generator
) -> list[TrainingPair]:
    """Draw m term sets for document `target` from its distinct tokens by importance.

    Each set's length is uniform over [10, min(512, n_distinct)]; documents
    with fewer than 10 distinct tokens contribute all of them, and a document
    without tokens none, drawing nothing from rng. Tokens are sampled without
    replacement and kept in sampled order.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not weights:  # an empty term set would not read back from pairs.tsv
        return []
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
        sampled = weighted_sample_without_replacement(items, w, length, rng)
        pairs.append(TrainingPair(sampled, target, "terms"))
    return pairs


def extract_ngram_pairs(corpus: Corpus, max_ngrams: int) -> list[TrainingPair]:
    """Select shared NGRAM_N-grams and pair each with every document containing it.

    Keeps up to max_ngrams distinct n-grams with document frequency >=
    NGRAM_MIN_DF, preferring higher document frequency (ties broken by the
    lexicographic order of the n-gram's token strings). An n-gram found in
    m documents yields m pairs.
    """
    if max_ngrams < 0:
        raise ValueError("max_ngrams must be >= 0")
    containing: dict[tuple[int, ...], list[int]] = {}
    for doc in corpus.docs:
        toks = doc.tokens.tolist()
        grams = {tuple(toks[i : i + NGRAM_N]) for i in range(len(toks) - NGRAM_N + 1)}
        for g in grams:
            containing.setdefault(g, []).append(doc.internal_id)
    vocab = corpus.vocab
    eligible = [(g, docs) for g, docs in containing.items() if len(docs) >= NGRAM_MIN_DF]
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
    max_ngrams: int = 0,
    seed: int = 0,
) -> list[TrainingPair]:
    """All three self-supervised pair kinds for the corpus, deterministically.

    Term-set sampling uses a per-document generator seeded from
    (seed, internal_id), so generation is order-independent and
    reproducible. An NGRAM_N-gram is kept only if NGRAM_MIN_DF documents
    share it, and max_ngrams caps the distinct n-grams kept: 0 means 10 * |D|.
    """
    max_ngrams = max_ngrams or 10 * len(corpus)
    df = document_frequencies(corpus)
    pairs: list[TrainingPair] = []
    for doc in corpus.docs:
        tokens = doc.tokens.tolist()  # Python ints, which the pairs hold and the sampler hashes
        pairs.extend(segment_passages(tokens, doc.internal_id, window))
        rng = np.random.default_rng(np.random.SeedSequence([seed, doc.internal_id]))
        pairs.extend(sample_term_sets(doc.internal_id, m_samples, term_importance(tokens, len(corpus), df), rng))
    pairs.extend(extract_ngram_pairs(corpus, max_ngrams))
    return pairs


def save_pairs(path: str | Path, pairs: list[TrainingPair], corpus: Corpus) -> None:
    """Write pairs for load_pairs; a token that would not read back raises before the file exists."""
    vocab = corpus.vocab
    unwritable = {i for i, t in enumerate(vocab.id_to_token) if not valid_id(t)}
    used = unwritable and sorted(unwritable.intersection(t for p in pairs for t in p.tokens))
    if used:
        raise ValueError(f"token id {used[0]} ({vocab.token(used[0])!r}) is empty or contains whitespace")
    with open(path, "w", encoding="utf-8") as f:
        for p in pairs:
            text = " ".join(vocab.token(t) for t in p.tokens)
            f.write(f"{p.task}\t{corpus.external_id(p.target)}\t{text}\n")


def load_pairs(path: str | Path, corpus: Corpus) -> list[TrainingPair]:
    """Read a save_pairs file against the corpus it was written for: a target
    docid or a token the corpus lacks raises, naming the line."""
    token_to_id = corpus.vocab.token_to_id  # holds "<unk>", which save_pairs writes for UNK_ID
    pairs: list[TrainingPair] = []
    for where, line in text_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{where}: expected 3 tab-separated fields")
        task, ext, text = parts
        if task not in PRETRAIN_TASKS:
            raise ValueError(f"{where}: task '{task}' is not a pre-training task {PRETRAIN_TASKS}")
        if ext not in corpus.by_external:
            raise ValueError(f"{where}: pair targets unknown docid '{ext}'")
        try:
            tokens = [token_to_id[t] for t in text.split(" ") if t]
        except KeyError as e:  # the file was written for another corpus
            raise ValueError(f"{where}: token {e.args[0]!r} is not in the corpus vocabulary") from None
        if not tokens:
            raise ValueError(f"{where}: pair has no tokens")
        pairs.append(TrainingPair(tokens, corpus.by_external[ext], task))
    return pairs
