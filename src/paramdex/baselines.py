"""Sparse and dense retrieval baselines.

BM25 runs over an in-memory inverted index. The dense baseline is a
two-tower encoder pair (shared weights by default) trained with softmax
cross-entropy over in-batch negatives. It has no retriever of its own:
retriever.init_overdense turns its encoded corpus into a docid matrix, so
dense retrieval is DocidRetriever(query tower, init_overdense(index)),
the model that init-from-dense fine-tuning starts from.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Query, UNK_ID
from .nn import Encoder, EncoderConfig, softmax_xent
from .nn import adamw_step  # noqa: F401 -- perfbench's traced run shims baselines.adamw_step
from .retriever import RankedList, run_stage
from .training import EpochLog, TrainConfig, batches, stage_rng

K1, B = 1.2, 0.75  # Okapi BM25 defaults


@dataclass
class InvertedIndex:
    postings: dict[int, list[tuple[int, int]]]  # token -> [(docid, tf)] sorted by docid
    doc_len: np.ndarray
    avgdl: float
    n_docs: int

    def df(self, token: int) -> int:
        return len(self.postings.get(token, ()))


def build_inverted_index(corpus: Corpus) -> InvertedIndex:
    """Complete postings (term frequencies) for every token in the corpus.

    UNK is not indexed: a query term that falls out of the vocabulary
    matches nothing rather than matching every rare-token document.
    """
    if len(corpus) == 0:
        raise ValueError("cannot index an empty corpus")
    postings: dict[int, list[tuple[int, int]]] = {}
    doc_len = np.zeros(len(corpus), dtype=np.int64)
    for doc in corpus.docs:
        doc_len[doc.internal_id] = len(doc.tokens)
        counts: dict[int, int] = {}
        for t in doc.tokens:
            if t != UNK_ID:
                counts[t] = counts.get(t, 0) + 1
        for t in sorted(counts):
            postings.setdefault(t, []).append((doc.internal_id, counts[t]))
    avgdl = float(doc_len.mean())
    return InvertedIndex(postings, doc_len, avgdl, len(corpus))


def _idf(index: InvertedIndex, token: int) -> float:
    df = index.df(token)
    return float(np.log(1.0 + (index.n_docs - df + 0.5) / (df + 0.5)))


def _add_term(scores: dict[int, float], index: InvertedIndex, token: int, postings,
              k1: float, b: float) -> None:
    """Add token's BM25 contribution to scores[docid] for each (docid, tf) posting."""
    idf = _idf(index, token)
    for docid, tf in postings:
        dl = float(index.doc_len[docid])
        norm = k1 * (1.0 - b + b * dl / index.avgdl)
        scores[docid] = scores.get(docid, 0.0) + idf * tf * (k1 + 1.0) / (tf + norm)


def bm25_score(
    index: InvertedIndex, query_tokens, docid: int, k1: float = K1, b: float = B
) -> float:
    """Okapi score of one document for a query (distinct terms, +1-in-log idf)."""
    scores: dict[int, float] = {}
    for t in set(query_tokens):
        plist = index.postings.get(t, [])
        # (docid, 0) sorts just before the (docid, tf) entry, if any; the entry
        # at pos may belong to another document, whose score is never read
        pos = bisect_left(plist, (docid, 0))
        _add_term(scores, index, t, plist[pos : pos + 1], k1, b)
    return scores.get(docid, 0.0)


def bm25_retrieve(index: InvertedIndex, query: Query, k: int) -> RankedList:
    """Top-k by BM25; only documents sharing a term with the query appear."""
    if k < 1:
        raise ValueError("k must be >= 1")
    scores: dict[int, float] = {}
    for t in set(query.tokens):
        _add_term(scores, index, t, index.postings.get(t, ()), K1, B)
    ranked = sorted(scores.items(), key=lambda e: (-e[1], e[0]))[:k]
    return RankedList(query.qid, [(d, float(s)) for d, s in ranked])


def train_two_tower(
    corpus: Corpus,
    queries: list[Query],
    qrels: dict[str, int],
    enc_cfg: EncoderConfig,
    cfg: TrainConfig,
    shared: bool = True,
) -> tuple[Encoder, Encoder, list[EpochLog]]:
    """Train query/document towers with in-batch softmax cross entropy.

    Runs for cfg.finetune_epochs (with plateau stopping). A trailing batch
    of one pair is folded into the previous batch, since a single pair has
    no in-batch negatives.
    """
    if cfg.batch_size < 2:
        raise ValueError("in-batch negatives need batch_size >= 2")
    pairs = [(q.tokens, qrels[q.qid]) for q in queries if q.qid in qrels and q.tokens]
    if len(pairs) < 2:
        raise ValueError("two-tower training needs at least 2 labeled queries")
    q_enc = Encoder.init(enc_cfg, np.random.default_rng(np.random.SeedSequence([cfg.seed, 10])))
    if shared:
        d_enc, towers = q_enc, {"q.": q_enc}
    else:
        d_enc = Encoder.init(enc_cfg, np.random.default_rng(np.random.SeedSequence([cfg.seed, 11])))
        towers = {"q.": q_enc, "d.": d_enc}
    trainable = {p + k: v for p, enc in towers.items() for k, v in enc.params.items()}

    def load(params):
        for p, enc in towers.items():
            enc.params = {k: params[p + k] for k in enc.params}

    def epoch_batches(epoch):
        order = stage_rng(cfg.seed, 1, epoch).permutation(len(pairs))
        chunks = list(batches([pairs[i] for i in order], cfg.batch_size))
        if len(chunks) > 1 and len(chunks[-1]) == 1:
            chunks[-2] += chunks.pop()
        return chunks

    # Each tower's activations stay referenced until its next forward pass.
    # Freeing both towers' at once after every batch lets glibc malloc return
    # the pages to the OS and fault them back in: 3.8x the page faults and
    # about 15% slower two-tower training on the dense benchmark workload
    # (2-core Xeon, one BLAS thread).
    cache: dict[str, tuple] = {}

    def loss_and_grad(params, batch):
        load(params)
        q_vec, cache["q"] = q_enc.forward_batch([q for q, _ in batch])
        d_vec, cache["d"] = d_enc.forward_batch([corpus.doc(d).tokens for _, d in batch])
        # in-batch negatives: query i's positive is document i of the batch
        loss, dscores = softmax_xent(q_vec @ d_vec.T, np.arange(len(batch)))
        gq = q_enc.backward_batch(cache["q"], dscores @ d_vec)
        gd = d_enc.backward_batch(cache["d"], dscores.T @ q_vec)
        if shared:
            return loss, {"q." + k: gq[k] + gd[k] for k in gq}
        return loss, {**{"q." + k: v for k, v in gq.items()}, **{"d." + k: v for k, v in gd.items()}}

    logs: list[EpochLog] = []
    load(run_stage("two_tower", trainable, epoch_batches, loss_and_grad,
                   cfg.finetune_epochs, cfg, logs))
    return q_enc, d_enc, logs


def dense_encode_corpus(doc_encoder: Encoder, corpus: Corpus, batch_size: int = 32) -> np.ndarray:
    """Encode every document (file order, fixed batching) into an n_docs x d index."""
    rows = []
    for i in range(0, len(corpus), batch_size):
        chunk = [d.tokens for d in corpus.docs[i : i + batch_size]]
        vec, _ = doc_encoder.forward_batch(chunk, need_cache=False)
        rows.append(vec)
    return np.concatenate(rows, axis=0).astype(np.float32)
