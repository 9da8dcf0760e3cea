"""Sparse and dense retrieval baselines.

BM25 runs over an in-memory inverted index held as numpy CSR arrays: the
postings of token t are positions indptr[t]:indptr[t + 1] of the docid,
term-frequency and weight arrays, sorted by docid. Each posting's BM25
contribution is computed once, at build time. A query adds each distinct
term's weights into a dense score array and ranks the matched documents
with retriever.top_order. The dense baseline is a two-tower encoder pair
(shared weights unless TrainConfig.separate_towers) trained with softmax
cross-entropy over in-batch negatives. Its step is the docid step,
nn.forward_backward, with the batch's encoded positives as the docid
matrix; each step encodes the batch's distinct positive documents once.
It has no retriever of its own:
retriever.init_overdense turns its encoded corpus into a docid matrix, so
dense retrieval is DocidRetriever(query tower, init_overdense(index, n_docs)),
the model that init-from-dense fine-tuning starts from.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

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
    doc_len = np.fromiter((len(d.tokens) for d in corpus.docs), np.int64, n)
    # one key per token occurrence, token * n + docid, built in place to keep the peak low
    keys = np.fromiter(chain.from_iterable(d.tokens for d in corpus.docs), np.int64, int(doc_len.sum()))
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
    q_enc: Encoder,
    d_enc: Encoder,
    corpus: Corpus,
    batch: list[TrainingPair],
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean in-batch softmax loss of one batch and its gradients, keyed by
    "q." and "d." plus the parameter name; "q." alone when d_enc is q_enc.

    This is the docid step, nn.forward_backward, with the batch's document
    vectors as the docid matrix. The document tower runs once over the
    batch's distinct positives, and the matrix gathers their vectors back
    into batch order: query i's positive is column i, and any other copy of
    that document in the batch is one of its negatives. The gradients of a
    document's copies are summed before its backward pass.
    """
    docs, slot = np.unique([p.target for p in batch], return_inverse=True)
    u_vec, d_cache = d_enc.forward_batch([corpus.doc(t).tokens for t in docs.tolist()])
    loss, gq = forward_backward(q_enc, u_vec[slot].T,
                                [TrainingPair(p.tokens, i, p.task) for i, p in enumerate(batch)])
    d_grad = np.zeros_like(u_vec)
    np.add.at(d_grad, slot, gq.pop("w_doc").T)
    gd = d_enc.backward_batch(d_cache, d_grad)
    if d_enc is q_enc:
        for k, g in gq.items():
            g += gd[k]
        return loss, {"q." + k: g for k, g in gq.items()}
    return loss, {**{"q." + k: g for k, g in gq.items()}, **{"d." + k: g for k, g in gd.items()}}


def train_two_tower(
    corpus: Corpus,
    queries: list[Query],
    qrels: dict[str, int],
    enc_cfg: EncoderConfig,
    cfg: TrainConfig,
) -> tuple[Encoder, Encoder, list[EpochLog]]:
    """Train query/document towers with in-batch softmax cross entropy.

    The towers are one encoder unless cfg.separate_towers. Trains on the
    pairs of pairs.query_pairs for cfg.finetune_epochs (with plateau
    stopping), each batch one two_tower_step. The pairs pass the stage rule
    of the docid trainers (every target a docid of the corpus) before the
    towers are built, and there must be at least 2 of them. A trailing
    batch of one pair is folded into the previous batch, since a single
    pair has no in-batch negatives.
    """
    if cfg.batch_size < 2:
        raise ValueError("in-batch negatives need batch_size >= 2")
    pairs = query_pairs(queries, qrels)
    _check_stage("two_tower", pairs, cfg.finetune_epochs, len(corpus))
    if len(pairs) < 2:
        raise ValueError("two-tower training needs at least 2 labeled queries")
    q_enc = Encoder.init(enc_cfg, np.random.SeedSequence([cfg.seed, 10]))
    if cfg.separate_towers:
        d_enc = Encoder.init(enc_cfg, np.random.SeedSequence([cfg.seed, 11]))
        towers = {"q.": q_enc, "d.": d_enc}
    else:
        d_enc, towers = q_enc, {"q.": q_enc}
    trainable = {p + k: v for p, enc in towers.items() for k, v in enc.params.items()}

    def epoch_batches(epoch):
        order = stage_rng(cfg.seed, 1, epoch).permutation(len(pairs))
        chunks = list(batches([pairs[i] for i in order], cfg.batch_size))
        if len(chunks) > 1 and len(chunks[-1]) == 1:
            chunks[-2] += chunks.pop()
        return chunks

    logs = run_stage("two_tower", trainable, epoch_batches,
                     lambda batch: two_tower_step(q_enc, d_enc, corpus, batch),
                     cfg.finetune_epochs, cfg)
    return q_enc, d_enc, logs


def dense_encode_corpus(doc_encoder: Encoder, corpus: Corpus, batch_size: int = 32) -> np.ndarray:
    """Encode every document (file order, fixed batching) into an n_docs x d
    index of the encoder's dtype."""
    rows = []
    for i in range(0, len(corpus), batch_size):
        chunk = [d.tokens for d in corpus.docs[i : i + batch_size]]
        vec, _ = doc_encoder.forward_batch(chunk, need_cache=False)
        rows.append(vec)
    return np.concatenate(rows, axis=0)
