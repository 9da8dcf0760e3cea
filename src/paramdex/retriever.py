"""Docid scoring over the trainable index matrix, top-k retrieval, the AdamW
stage loop every trainer shares, and the two docid training pipelines
(from-scratch and init-from-dense-vectors). Both end in the same
query-docid fine-tuning stage. A stage runs exactly when its epoch count
in TrainConfig is above 0; that is also how an ablation drops a stage.
A trainer checks every stage's pairs (_check_stage) before any stage
trains, and returns the EpochLogs that run_stage gives, stage by stage.

The index is a d_model x n_docs matrix whose column i is the embedding of
internal docid i. Retrieval encodes the queries in blocks of QUERY_BLOCK,
scores each block with one (B, d_model) x (d_model, n_docs) product, and
keeps each row's top k. Ranking uses the raw logits: softmax is monotone,
so probabilities rank identically, and raw scores are what the sharded
merge diagnostics need. top_order ranks every list: model, dense, BM25,
per-shard and merged (distributed.merge_runs).

A RankedList carries its docids and scores as two numpy arrays, from the
ranking that makes them to the run file that write_run formats from them;
the scores keep the scorer's dtype. Its `items` is a (docid, score) list
of Python numbers built on first read and cached, for tests and oracles
that compare whole lists.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import Corpus, Query
from .nn import (
    Encoder,
    EncoderConfig,
    adamw_init,
    adamw_step,
    forward_backward,
)
from .pairs import TrainingPair, query_pairs
from .training import (
    EpochLog,
    TrainConfig,
    batches,
    mixed_task_epoch,
    stage_rng,
)

log = logging.getLogger(__name__)

# queries encoded and scored together; bounds the logits to QUERY_BLOCK x n_docs
QUERY_BLOCK = 64


@dataclass(eq=False)  # == on arrays has no single truth value; compare .items
class RankedList:
    qid: str
    ids: np.ndarray  # int64 docids, best first
    scores: np.ndarray  # their raw scores, non-increasing

    @cached_property
    def items(self) -> list[tuple[int, float]]:
        """(docid, score) pairs as Python numbers, built once."""
        return list(zip(self.ids.tolist(), self.scores.tolist()))


def score_all(v: np.ndarray, w_doc: np.ndarray) -> np.ndarray:
    """(B, n_docs) logits for a (B, d_model) block of query vectors."""
    if v.ndim != 2 or w_doc.ndim != 2 or v.shape[1] != w_doc.shape[0]:
        raise ValueError(
            f"dimension mismatch: query vectors {v.shape} vs docid matrix {w_doc.shape}"
        )
    return v @ w_doc


def top_order(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the first min(k, n) of the descending sort, ties by ascending position.

    For k < n, a partition finds the k-th largest score and only the
    scores >= it are sorted, so a tie straddling the k-th place is ordered
    exactly as the full stable sort would order it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not np.isfinite(scores).all():
        raise ValueError("cannot rank non-finite scores (NaN or inf)")
    n = scores.shape[0]
    if k >= n:
        return np.argsort(-scores, kind="stable")
    kth = np.partition(scores, n - k)[n - k]
    cand = np.flatnonzero(scores >= kth)
    # last key is primary: descending score, then ascending position
    return cand[np.lexsort((cand, -scores[cand]))][:k]


def top_k(logits: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Docids and logits of the first min(k, n) of the descending sort, ties by ascending docid."""
    order = top_order(logits, k)
    return order, logits[order]


def init_overdense(dense_index: np.ndarray, n_docs: int) -> np.ndarray:
    """Docid matrix whose column i is document i's dense vector: always a new
    array, so training it never changes dense_index."""
    if dense_index.ndim != 2:
        raise ValueError("dense index must be 2-d (n_docs x d_model)")
    if dense_index.shape[0] != n_docs:
        raise ValueError(
            f"dense index has {dense_index.shape[0]} rows but the corpus has {n_docs} documents"
        )
    return dense_index.T.copy()


class DocidRetriever:
    """Query encoder + docid matrix; retrieval is exact scoring of every docid."""

    def __init__(self, encoder: Encoder, w_doc: np.ndarray):
        if w_doc.shape[0] != encoder.cfg.d_model:
            raise ValueError("docid matrix rows must equal the encoder's d_model")
        self.encoder = encoder
        self.w_doc = w_doc

    def retrieve(self, query: Query, k: int) -> RankedList:
        return self.retrieve_all([query], k)[0]

    def retrieve_all(self, queries: list[Query], k: int) -> list[RankedList]:
        """Top k for every query: one encoder call and one product per block."""
        ranked = []
        for start in range(0, len(queries), QUERY_BLOCK):
            block = queries[start : start + QUERY_BLOCK]
            v, _ = self.encoder.forward_batch([q.tokens for q in block], need_cache=False)
            logits = score_all(v, self.w_doc)
            ranked += [RankedList(q.qid, *top_k(row, k)) for q, row in zip(block, logits)]
        return ranked


def _check_stage(stage: str, pairs: list[TrainingPair], n_epochs: int, n_docs: int) -> None:
    """A stage's input rule, checked before any stage trains: it has pairs
    when it runs any epoch, and every pair targets a docid of the corpus."""
    if n_epochs > 0 and not pairs:
        raise ValueError(f"{stage}: {n_epochs} epochs requested but no pairs were provided")
    for p in pairs:
        if not 0 <= p.target < n_docs:
            raise ValueError(f"{stage}: pair targets docid {p.target} outside corpus of size {n_docs}")


def run_stage(
    stage: str,
    trainable: dict[str, np.ndarray],
    epoch_batches,  # callable epoch -> list of batches
    loss_and_grad,  # callable batch -> (mean batch loss, grads keyed like trainable)
    n_epochs: int,
    cfg: TrainConfig,
) -> list[EpochLog]:
    """AdamW epochs with plateau stopping, one EpochLog per epoch run. The
    arrays in trainable are the models' own and are updated in place. Every
    epoch must give at least one batch. An epoch is stale unless its loss
    is below best - plateau_min_delta, best being the lowest earlier epoch
    loss; the stage stops once plateau_patience epochs in a row are stale.
    Patience 0 never stops early."""
    state = adamw_init(trainable)
    logs: list[EpochLog] = []
    best, stale = float("inf"), 0
    for epoch in range(n_epochs):
        total, count = 0.0, 0
        for batch in epoch_batches(epoch):
            loss, grads = loss_and_grad(batch)
            adamw_step(trainable, grads, state, cfg)
            total += loss * len(batch)
            count += len(batch)
        mean_loss = total / count
        logs.append(EpochLog(stage, epoch, mean_loss))
        log.info("%s epoch %d: loss %.6f", stage, epoch, mean_loss)
        stale = 0 if mean_loss < best - cfg.plateau_min_delta else stale + 1
        best = min(best, mean_loss)
        if cfg.plateau_patience and stale >= cfg.plateau_patience:
            log.info("%s: loss plateau, stopping after epoch %d", stage, epoch)
            break
    return logs


def _train_docid(stage: str, encoder: Encoder, w_doc: np.ndarray, epoch_pairs, n_epochs: int,
                 cfg: TrainConfig) -> list[EpochLog]:
    """run_stage on the docid loss over the pairs epoch_pairs(epoch) gives;
    trains w_doc, and the encoder unless cfg.freeze_encoder, in place."""
    freeze = cfg.freeze_encoder
    return run_stage(
        stage, {"w_doc": w_doc} if freeze else dict(encoder.params, w_doc=w_doc),
        lambda ep: batches(epoch_pairs(ep), cfg.batch_size),
        lambda batch: forward_backward(encoder, w_doc, batch, freeze_encoder=freeze),
        n_epochs, cfg,
    )


def _finetune(encoder: Encoder, w_doc: np.ndarray, fine_pairs: list[TrainingPair],
              cfg: TrainConfig) -> list[EpochLog]:
    """Query-docid fine-tuning of encoder and w_doc, in place, for
    cfg.finetune_epochs epochs, on pairs _check_stage has passed."""
    return _train_docid(
        "finetune", encoder, w_doc,
        lambda ep: [fine_pairs[i] for i in stage_rng(cfg.seed, 3, ep).permutation(len(fine_pairs))],
        cfg.finetune_epochs, cfg,
    )


def train_vanilla(
    corpus: Corpus,
    pretrain_pairs: list[TrainingPair],
    queries: list[Query],
    qrels: dict[str, int],
    enc_cfg: EncoderConfig,
    cfg: TrainConfig,
) -> tuple[Encoder, np.ndarray, list[EpochLog]]:
    """Random init, self-supervised pre-training, then query-docid fine-tuning.
    Both stages are checked before pre-training starts; the logs are the
    pre-training epochs' followed by the fine-tuning epochs'."""
    fine_pairs = query_pairs(queries, qrels)
    _check_stage("pretrain", pretrain_pairs, cfg.pretrain_epochs, len(corpus))
    _check_stage("finetune", fine_pairs, cfg.finetune_epochs, len(corpus))
    encoder = Encoder.init(enc_cfg, np.random.SeedSequence([cfg.seed, 0]))
    w_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    w_doc = w_rng.normal(0.0, 0.02, size=(enc_cfg.d_model, len(corpus))).astype(np.float32)
    logs = _train_docid(
        "pretrain", encoder, w_doc,
        lambda ep: mixed_task_epoch(pretrain_pairs, cfg, stage_rng(cfg.seed, 2, ep)),
        cfg.pretrain_epochs, cfg,
    )
    return encoder, w_doc, logs + _finetune(encoder, w_doc, fine_pairs, cfg)


def train_overdense(
    corpus: Corpus,
    dense_index: np.ndarray,
    query_tower: Encoder,
    queries: list[Query],
    qrels: dict[str, int],
    cfg: TrainConfig,
) -> tuple[Encoder, np.ndarray, list[EpochLog]]:
    """Start from the dense baseline (encoder = its query tower, docid matrix
    = its document vectors) and fine-tune on query-docid pairs.

    With cfg.finetune_epochs = 0 the result scores every query exactly like
    the dense baseline.
    """
    w_doc = init_overdense(dense_index, len(corpus))
    if w_doc.shape[0] != query_tower.cfg.d_model:
        raise ValueError(f"dense index vectors have width {w_doc.shape[0]} but the query "
                         f"tower's d_model is {query_tower.cfg.d_model}")
    if w_doc.dtype != query_tower.dtype:
        raise ValueError(f"dense index vectors are {w_doc.dtype} but the query tower "
                         f"is {query_tower.dtype}")
    fine_pairs = query_pairs(queries, qrels)
    _check_stage("finetune", fine_pairs, cfg.finetune_epochs, len(corpus))
    encoder = Encoder(query_tower.cfg, {k: v.copy() for k, v in query_tower.params.items()})
    return encoder, w_doc, _finetune(encoder, w_doc, fine_pairs, cfg)
