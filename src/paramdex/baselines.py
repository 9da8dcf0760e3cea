"""Sparse and dense retrieval baselines.

BM25 runs over an in-memory inverted index held as numpy CSR arrays: the
postings of token t are positions indptr[t]:indptr[t + 1] of the docid,
term-frequency and weight arrays, sorted by docid. Each posting's BM25
contribution is computed once, at build time. A query adds each distinct
term's weights into a dense score array and ranks the matched documents
with retriever.top_order. The dense baseline is a two-tower model whose
towers are one shared encoder, trained with softmax cross-entropy over
in-batch negatives. Its step is the docid step, nn.forward_backward, with
the batch's encoded positives as the docid matrix; each step encodes the
batch's distinct positive documents once. It has no retriever of its own:
retriever.init_overdense turns its encoded corpus into a docid matrix, so
dense retrieval is DocidRetriever(query tower, init_overdense(index, n_docs)),
the model that init-from-dense fine-tuning starts from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Query, UNK_ID
from .nn import Encoder, EncoderConfig, forward_backward
from .nn import adamw_step  # noqa: F401 -- perfbench's traced run shims baselines.adamw_step
from .pairs import TrainingPair, query_pairs
from .retriever import RankedList, _check_stage, run_stage, top_order
from .training import EpochLog, TrainConfig, batches, stage_rng

K1, B = 1.2, 0.75  # Okapi BM25 defaults


@dataclass
class InvertedIndex:
    indptr: np.ndarray  # (vocab_size + 1,): token t's postings are [indptr[t], indptr[t + 1])
    docids: np.ndarray  # per posting, ascending within a token
    tf: np.ndarray  # per posting: term frequency
    weights: np.ndarray  # per posting: float64 BM25 contribution with K1, B
    doc_len: np.ndarray
    avgdl: float
    n_docs: int

    def span(self, token: int) -> slice:
        """Positions of token's postings; empty for a token outside the index."""
        if not 0 <= token < self.indptr.shape[0] - 1:
            return slice(0, 0)
        return slice(int(self.indptr[token]), int(self.indptr[token + 1]))


def _idf(n_docs: int, df):
    return np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def _weight(idf, tf, dl, avgdl: float):
    """Okapi contribution of one term to one document; elementwise on arrays."""
    norm = K1 * (1.0 - B + B * dl / avgdl)
    return idf * tf * (K1 + 1.0) / (tf + norm)


def build_inverted_index(corpus: Corpus) -> InvertedIndex:
    """Complete postings (term frequencies) for every token in the corpus.

    UNK is not indexed: a query term that falls out of the vocabulary
    matches nothing rather than matching every rare-token document.
    """
    n = len(corpus)
    if n == 0:
        raise ValueError("cannot index an empty corpus")
    doc_len = np.diff(corpus.indptr)
    # one key per token occurrence, token * n + docid, built in place to keep the peak low
    keys = corpus.tokens.astype(np.int64)
    keys *= n
    keys += np.repeat(np.arange(n, dtype=np.int32), doc_len)
    keys, tf = np.unique(keys, return_counts=True)  # sorted by token, then docid
    term, docids = np.divmod(keys, n)
    keep = term != UNK_ID
    term, docids, tf = term[keep], docids[keep], tf[keep].astype(np.int32)
    counts = np.bincount(term, minlength=len(corpus.vocab))
    indptr = np.concatenate(([0], np.cumsum(counts)))
    avgdl = float(doc_len.mean())
    weights = _weight(_idf(n, counts)[term], tf, doc_len[docids].astype(np.float64), avgdl)
    return InvertedIndex(indptr, docids, tf, weights, doc_len, avgdl, n)


def bm25_score(index: InvertedIndex, query_tokens, docid: int) -> float:
    """Okapi score of one document for a query (distinct terms, +1-in-log idf).

    Recomputed from the term frequencies and document length, not read
    from the index's precomputed weights.
    """
    score = 0.0
    dl = float(index.doc_len[docid])
    for t in set(query_tokens):
        s = index.span(t)
        pos = s.start + int(np.searchsorted(index.docids[s], docid))
        if pos < s.stop and index.docids[pos] == docid:
            idf = float(_idf(index.n_docs, s.stop - s.start))
            score += _weight(idf, int(index.tf[pos]), dl, index.avgdl)
    return score


def bm25_retrieve(index: InvertedIndex, query: Query, k: int) -> RankedList:
    """Top-k by BM25; only documents sharing a term with the query appear."""
    scores = np.zeros(index.n_docs)
    for t in set(query.tokens):
        s = index.span(t)
        scores[index.docids[s]] += index.weights[s]
    # every posting weight is > 0, so the matched documents are the positive scores
    matched = np.flatnonzero(scores > 0.0)
    docids = matched[top_order(scores[matched], k)]
    return RankedList(query.qid, docids, scores[docids])


def two_tower_step(
    enc: Encoder,
    corpus: Corpus,
    batch: list[TrainingPair],
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean in-batch softmax loss of one batch and its gradients, keyed by
    the parameter names of enc, the encoder both towers share.

    This is the docid step, nn.forward_backward, with the batch's document
    vectors as the docid matrix. The document side runs once over the
    batch's distinct positives, and the matrix gathers their vectors back
    into batch order: query i's positive is column i, and any other copy of
    that document in the batch is one of its negatives. The gradients of a
    document's copies are summed before its backward pass, whose gradients
    are then added to the query side's.
    """
    docs, slot = np.unique([p.target for p in batch], return_inverse=True)
    u_vec, d_cache = enc.forward_batch([corpus.doc(t).tokens for t in docs.tolist()])
    loss, grads = forward_backward(enc, u_vec[slot].T,
                                   [TrainingPair(p.tokens, i, p.task) for i, p in enumerate(batch)])
    d_grad = np.zeros_like(u_vec)
    np.add.at(d_grad, slot, grads.pop("w_doc").T)
    gd = enc.backward_batch(d_cache, d_grad)
    for k, g in grads.items():
        g += gd[k]
    return loss, grads


def train_two_tower(
    corpus: Corpus,
    queries: list[Query],
    qrels: dict[str, int],
    enc_cfg: EncoderConfig,
    cfg: TrainConfig,
) -> tuple[Encoder, Encoder, list[EpochLog]]:
    """Train the shared query/document encoder with in-batch softmax cross
    entropy; returns (query tower, document tower, logs), the one encoder
    twice.

    Trains on the pairs of pairs.query_pairs for cfg.finetune_epochs (with
    plateau stopping), each batch one two_tower_step. The pairs pass the
    stage rule of the docid trainers (every target a docid of the corpus)
    before the encoder is built. A stage that runs an epoch also needs
    batch_size >= 2 and at least 2 pairs; one that runs none needs neither.
    A trailing batch of one pair is folded into the previous batch, since a
    single pair has no in-batch negatives.
    """
    if cfg.finetune_epochs > 0 and cfg.batch_size < 2:
        raise ValueError("in-batch negatives need batch_size >= 2")
    pairs = query_pairs(queries, qrels)
    _check_stage("two_tower", pairs, cfg.finetune_epochs, len(corpus))
    if cfg.finetune_epochs > 0 and len(pairs) < 2:
        raise ValueError("two-tower training needs at least 2 labeled queries")
    enc = Encoder.init(enc_cfg, np.random.SeedSequence([cfg.seed, 10]))

    def epoch_batches(epoch):
        order = stage_rng(cfg.seed, 1, epoch).permutation(len(pairs))
        chunks = list(batches([pairs[i] for i in order], cfg.batch_size))
        if len(chunks) > 1 and len(chunks[-1]) == 1:
            chunks[-2] += chunks.pop()
        return chunks

    logs = run_stage("two_tower", enc.params, epoch_batches,
                     lambda batch: two_tower_step(enc, corpus, batch),
                     cfg.finetune_epochs, cfg)
    return enc, enc, logs


def dense_encode_corpus(doc_encoder: Encoder, corpus: Corpus, batch_size: int = 32) -> np.ndarray:
    """Encode every document (file order, fixed batching) into an n_docs x d
    index of the encoder's dtype."""
    rows = []
    views = [corpus.tokens[a:b] for a, b in zip(corpus.indptr[:-1].tolist(), corpus.indptr[1:].tolist())]
    for i in range(0, len(views), batch_size):
        vec, _ = doc_encoder.forward_batch(views[i : i + batch_size], need_cache=False)
        rows.append(vec)
    return np.concatenate(rows, axis=0)
