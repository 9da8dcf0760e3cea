"""The benchmark's workloads: set-up, one measured pass, and the oracles.

A pass is a fixed amount of work for a given seed: the same calls on the
same inputs every time. So per-pass counts repeat exactly, the outputs of
every pass must be byte-identical to the first pass's, and per-pass times
compare across seeds. Only calls into paramdex are timed; oracle work runs
in the first pass, outside the timed calls, and that pass is never traced.

pretrain  pairs, then train_vanilla (one pre-training epoch over a fixed
          pair sample, then a short fine-tune), then held-out retrieval.
          Mixed-length encoder batches.
dense     train_two_tower, dense_encode_corpus, train_overdense, then
          held-out retrieval. Near-uniform encoder batch lengths.
retrieve  model, BM25 and 4-shard retrieval over a 10k-document corpus
          with untrained seeded checkpoints; scoring and selection dominate.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from paramdex import baselines, checkpoint, corpus, distributed, evalkit, runfiles
from paramdex.nn import Encoder, EncoderConfig
from paramdex.pairs import generate_pretrain_pairs
from paramdex.retriever import DocidRetriever, init_overdense, train_overdense, train_vanilla
from paramdex.training import TrainConfig, format_logs

from . import oracles

K = 100
LR = 1e-3
BATCH = 32
# epochs run to completion: a plateau stop would make a pass's work data-dependent
NO_PLATEAU_STOP = 10**6
ORACLE_QUERIES = 8
EVAL_KS = (1, 20, 100)

SIZES = {
    "pretrain": {"n_docs": 80, "n_train": 30, "n_heldout": 50, "train_pairs": 1000,
                 "pretrain_epochs": 1, "finetune_epochs": 20},
    "dense": {"n_docs": 500, "n_train": 200, "n_heldout": 300,
              "two_tower_epochs": 3, "finetune_epochs": 8},
    # query counts give each method about a third of the pass
    "retrieve": {"n_docs": 10000, "n_train": 100, "n_heldout": 2000, "n_groups": 4,
                 "model_queries": 200, "bm25_queries": 1200, "shard_queries": 80},
}


@dataclass
class Ops:
    """Operations attempted and failed; a failed check or an exception is a failed op."""
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, problem: str | None, what: str) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.errors.append(f"{what}: {problem}")


@dataclass
class PassResult:
    seconds: float  # sum of the timed calls into paramdex
    stages: dict[str, tuple[int, float]]  # stage -> (items, seconds)
    latencies: dict[str, list[float]]  # per-query seconds of a stage
    outputs: dict[str, str]  # artifact -> sha256 of its bytes
    counts: dict[str, int]  # exact counts from the inputs passed and outputs returned


def _call(tr, name, fn, *args, **kwargs):
    """Call fn as one op inside a call-site span; returns (result, seconds)."""
    tr.new_op()
    with tr.span(name):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, time.perf_counter() - t0


def _write_run(tr, path: Path, ranked, corp, tag: str) -> tuple[float, str]:
    _, dt = _call(tr, "runfiles.write_run", runfiles.write_run, path, ranked, corp.external_id, tag=tag)
    return dt, hashlib.sha256(path.read_bytes()).hexdigest()


def _quality(run_path: Path, qrels_ext: dict[str, str], split: str) -> dict[str, float]:
    """Recall@k and MRR of a run file through evalkit, named after the query split."""
    runs = {q: [d for d, _, _ in e] for q, e in runfiles.read_run(run_path).items()}
    report = evalkit.evaluate(runs, qrels_ext, ks=EVAL_KS, cutoff=K)
    out = {f"{split}_recall_{k}": report.metrics[f"recall@{k}"] for k in EVAL_KS}
    out[f"{split}_mrr"] = report.metrics["mrr"]
    return out


def _load_queries(fx: Path, split: str, corp, limit: int | None = None):
    queries = corpus.load_queries(fx / f"{split}_queries.tsv", corp.vocab)[:limit]
    qrels_ext = corpus.read_qrels_file(fx / f"{split}_qrels.tsv")
    qrels_ext = {q.qid: qrels_ext[q.qid] for q in queries}
    return queries, qrels_ext, corpus.resolve_qrels(qrels_ext, corp)


def _labeled(queries, qrels) -> int:
    """Pairs a training stage steps through per epoch: labeled queries with tokens."""
    return sum(1 for q in queries if q.qid in qrels and q.tokens)


def _warm_up(corp, queries) -> None:
    enc = Encoder.init(EncoderConfig(vocab_size=len(corp.vocab)), 0)
    w_doc = np.zeros((enc.cfg.d_model, len(corp)), dtype=np.float32)
    DocidRetriever(enc, w_doc).retrieve_all(queries[:2], K)


class Workload:
    name = ""

    def __init__(self, fixture: Path, seed: int, sizes: dict, scratch: Path):
        self.fx = fixture
        self.seed = seed
        self.sizes = sizes
        self.scratch = scratch
        self.quality: dict[str, float] = {}
        self.setup_parts: dict[str, float] = {}

    def setup(self, tr) -> None:
        """Load inputs and warm up; records component seconds in setup_parts."""
        self._load_common(tr)
        _warm_up(self.corp, self.held_q)

    def run_pass(self, tr, ops: Ops, first: bool) -> PassResult:
        raise NotImplementedError

    def _load_common(self, tr) -> None:
        self.corp, self.setup_parts["corpus.load_s"] = _call(
            tr, "corpus.load_corpus", corpus.load_corpus, self.fx / "corpus")
        self.train_q, train_ext, self.train_qrels = _load_queries(self.fx, "train", self.corp)
        self.held_q, held_ext, _ = _load_queries(self.fx, "heldout", self.corp)
        self.qrels_ext = {"train": train_ext, "heldout": held_ext}
        self.enc_cfg = EncoderConfig(vocab_size=len(self.corp.vocab))

    def _bytes_written(self, outputs: dict) -> int:
        return sum((self.scratch / name).stat().st_size for name in outputs if name.endswith(".run"))

    def _model_eval(self, tr, enc, w_doc, ops: Ops, first: bool, outputs: dict) -> tuple[int, float]:
        """Retrieve held-out and train queries, write both run files; oracles on the first pass."""
        model = DocidRetriever(enc, w_doc)
        seconds, n = 0.0, 0
        for split, queries in (("heldout", self.held_q), ("train", self.train_q)):
            ranked, dt = _call(tr, "retriever.retrieve_all", model.retrieve_all, queries, K)
            path = self.scratch / f"{split}.run"
            dw, outputs[path.name] = _write_run(tr, path, ranked, self.corp, self.name)
            seconds += dt + dw
            n += len(queries)
            if first:
                _check_model_lists(ops, enc, w_doc, queries, ranked, len(self.corp))
                self.quality.update(_quality(path, self.qrels_ext[split], split))
        if first:
            # memorization of the fine-tuning queries: steady across seeds, and it
            # collapses when training breaks; held-out quality at this size is mostly seed noise
            self.quality["ranking_mrr"] = self.quality["train_mrr"]
        return n, seconds


def _check_model_lists(ops: Ops, enc, w_doc, queries, ranked, n_docs: int) -> None:
    for q, rl in zip(queries, ranked):
        ops.check(oracles.ranked_list_problem(rl.items, K, n_docs), f"model list {q.qid}")
    for q, rl in list(zip(queries, ranked))[:ORACLE_QUERIES]:
        ops.check(oracles.model_problem(enc, w_doc, q.tokens, rl.items, K),
                  f"model lexsort {q.qid}")


class Pretrain(Workload):
    name = "pretrain"

    def run_pass(self, tr, ops: Ops, first: bool) -> PassResult:
        s = self.sizes
        pairs, t_pairs = _call(tr, "pairs.generate_pretrain_pairs", generate_pretrain_pairs,
                               self.corp, seed=self.seed)
        sample = pairs
        if len(pairs) > s["train_pairs"]:
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, 7]))
            sample = [pairs[i] for i in np.sort(rng.choice(len(pairs), s["train_pairs"], replace=False))]
        cfg = TrainConfig(lr=LR, batch_size=BATCH, pretrain_epochs=s["pretrain_epochs"],
                          finetune_epochs=s["finetune_epochs"], plateau_patience=NO_PLATEAU_STOP,
                          seed=self.seed)
        (enc, w_doc, logs), t_train = _call(tr, "retriever.train_vanilla", train_vanilla, self.corp,
                                            sample, self.train_q, self.train_qrels, self.enc_cfg, cfg)
        # pre-training pairs over the whole call: the short fine-tune adds about 5% of its time
        pretrained = len(sample) * sum(1 for e in logs if e.stage == "pretrain")
        outputs = {"loss_log": hashlib.sha256(format_logs(logs).encode()).hexdigest()}
        n_q, t_model = self._model_eval(tr, enc, w_doc, ops, first, outputs)

        tasks = Counter(p.task for p in pairs)
        distinct = {d.internal_id: len(set(d.tokens)) for d in self.corp.docs}
        counts = {
            "pairs.count.passage": tasks["passage"],
            "pairs.count.terms": tasks["terms"],
            "pairs.count.ngram": tasks["ngram"],
            "pairs.term_draw_work": sum(len(p.tokens) * distinct[p.target]
                                        for p in pairs if p.task == "terms"),
            "training.epochs_run": len(logs),
            "retriever.scored_cells": n_q * len(self.corp),
            "runfiles.bytes_written": self._bytes_written(outputs),
        }
        return PassResult(
            seconds=t_pairs + t_train + t_model,
            stages={"pairs": (len(pairs), t_pairs), "pretrain": (pretrained, t_train),
                    "model": (n_q, t_model)},
            latencies={}, outputs=outputs, counts=counts,
        )


class Dense(Workload):
    name = "dense"

    def run_pass(self, tr, ops: Ops, first: bool) -> PassResult:
        s = self.sizes
        n_docs = len(self.corp)
        tt_cfg = TrainConfig(lr=LR, batch_size=BATCH, finetune_epochs=s["two_tower_epochs"],
                             plateau_patience=NO_PLATEAU_STOP, seed=self.seed)
        (q_tower, d_tower, tt_logs), t_tt = _call(
            tr, "baselines.train_two_tower", baselines.train_two_tower,
            self.corp, self.train_q, self.train_qrels, self.enc_cfg, tt_cfg)
        index, t_enc = _call(tr, "baselines.dense_encode_corpus", baselines.dense_encode_corpus,
                             d_tower, self.corp, batch_size=BATCH)
        if first:
            # before fine-tuning, the docid retriever is the dense retriever
            zero_shot = DocidRetriever(q_tower, init_overdense(index, n_docs))
            for q in self.held_q[:ORACLE_QUERIES]:
                items = zero_shot.retrieve_all([q], n_docs)[0].items
                ops.check(oracles.model_problem(q_tower, index.T, q.tokens, items, n_docs),
                          f"zero-shot overdense {q.qid}")
        ft_cfg = TrainConfig(lr=LR, batch_size=BATCH, finetune_epochs=s["finetune_epochs"],
                             plateau_patience=NO_PLATEAU_STOP, seed=self.seed)
        (enc, w_doc, ft_logs), t_ft = _call(
            tr, "retriever.train_overdense", train_overdense,
            self.corp, index, q_tower, self.train_q, self.train_qrels, ft_cfg)
        n_pairs = _labeled(self.train_q, self.train_qrels)
        outputs = {"loss_log": hashlib.sha256(format_logs(tt_logs + ft_logs).encode()).hexdigest()}
        n_q, t_model = self._model_eval(tr, enc, w_doc, ops, first, outputs)
        return PassResult(
            seconds=t_tt + t_enc + t_ft + t_model,
            stages={"two_tower": (n_pairs * len(tt_logs), t_tt), "encode": (n_docs, t_enc),
                    "finetune": (n_pairs * len(ft_logs), t_ft), "model": (n_q, t_model)},
            latencies={}, outputs=outputs,
            counts={"training.epochs_run": len(tt_logs) + len(ft_logs),
                    "retriever.scored_cells": n_q * n_docs,
                    "runfiles.bytes_written": self._bytes_written(outputs)},
        )


class Retrieve(Workload):
    name = "retrieve"
    postings_scanned: int | None = None

    def setup(self, tr) -> None:
        s = self.sizes
        self.corp, self.setup_parts["corpus.load_s"] = _call(
            tr, "corpus.load_corpus", corpus.load_corpus, self.fx / "corpus")
        n_queries = max(s["model_queries"], s["bm25_queries"], s["shard_queries"])
        queries, self.qrels_ext, _ = _load_queries(self.fx, "heldout", self.corp, n_queries)
        self.queries = {m: queries[:s[f"{m}_queries"]] for m in ("model", "bm25", "shard")}
        ckpts = [self.fx / "model.ckpt"]
        self.plan, self.setup_parts["distributed.read_manifest_s"] = _call(
            tr, "distributed.read_manifest", distributed.read_manifest,
            self.fx / "shards" / "shards.tsv", self.corp)
        ckpts += [self.fx / "shards" / f"group{g:02d}" / "model.ckpt" for g in range(self.plan.n_groups)]
        models, load_s = [], 0.0
        for gid, path in enumerate(ckpts):
            (cfg, params, w_doc), dt = _call(tr, "checkpoint.load_model", checkpoint.load_model, path)
            load_s += dt
            n_docs = len(self.corp) if gid == 0 else len(self.plan.groups[gid - 1])
            if w_doc is None or w_doc.shape[1] != n_docs or cfg.vocab_size != len(self.corp.vocab):
                raise ValueError(f"{path} does not match the corpus")
            models.append((Encoder(cfg, params), w_doc))
        self.encoder, self.w_doc = models[0]
        self.model = DocidRetriever(*models[0])
        self.shard_models = [DocidRetriever(*m) for m in models[1:]]
        self.setup_parts["checkpoint.load_s"] = load_s
        self.setup_parts["checkpoint.bytes_read"] = sum(p.stat().st_size for p in ckpts)
        self.index, self.setup_parts["baselines.index_build_s"] = _call(
            tr, "baselines.build_inverted_index", baselines.build_inverted_index, self.corp)
        q = queries[:1]
        self.model.retrieve_all(q, K)
        baselines.bm25_retrieve(self.index, q[0], K)
        distributed.merge_runs(distributed.shard_retrieve(self.shard_models, self.plan, q[0], K), K)

    def _postings_scanned(self) -> int:
        """Sum over BM25 queries of the document frequencies of their distinct terms."""
        df = Counter(t for d in self.corp.docs for t in set(d.tokens) if t != corpus.UNK_ID)
        return sum(df[t] for q in self.queries["bm25"] for t in set(q.tokens))

    def run_pass(self, tr, ops: Ops, first: bool) -> PassResult:
        corp, queries, n_docs = self.corp, self.queries, len(self.corp)
        outputs: dict[str, str] = {}

        ranked, t_model = _call(tr, "retriever.retrieve_all", self.model.retrieve_all, queries["model"], K)
        dw, outputs["model.run"] = _write_run(tr, self.scratch / "model.run", ranked, corp, "model")
        t_model += dw

        bm25, bm25_lat = [], []
        for q in queries["bm25"]:
            rl, dt = _call(tr, "baselines.bm25_retrieve", baselines.bm25_retrieve, self.index, q, K)
            bm25.append(rl)
            bm25_lat.append(dt)
        dw, outputs["bm25.run"] = _write_run(tr, self.scratch / "bm25.run", bm25, corp, "bm25")
        t_bm25 = sum(bm25_lat) + dw

        merged, shard_runs, shard_lat = [], [], []
        for q in queries["shard"]:
            tr.new_op()
            t0 = time.perf_counter()
            with tr.span("distributed.shard_retrieve"):
                runs = distributed.shard_retrieve(self.shard_models, self.plan, q, per_group_k=K)
            with tr.span("distributed.merge_runs"):
                merged.append(distributed.merge_runs(runs, K, mode="raw"))
            shard_lat.append(time.perf_counter() - t0)
            shard_runs.append(runs)
        dw, outputs["shard.run"] = _write_run(tr, self.scratch / "shard.run", merged, corp, "shard")
        t_shard = sum(shard_lat) + dw

        if first:
            self._check(ops, ranked, bm25, merged, shard_runs)
            bm25_qrels = {q.qid: self.qrels_ext[q.qid] for q in queries["bm25"]}
            self.quality = _quality(self.scratch / "bm25.run", bm25_qrels, "heldout")
            # the checkpoints are untrained, so BM25 is the ranking whose quality means something
            self.quality["ranking_mrr"] = self.quality["heldout_mrr"]
        if self.postings_scanned is None:
            self.postings_scanned = self._postings_scanned()
        n = {m: len(qs) for m, qs in queries.items()}
        return PassResult(
            seconds=t_model + t_bm25 + t_shard,
            stages={"model": (n["model"], t_model), "bm25": (n["bm25"], t_bm25),
                    "shard": (n["shard"], t_shard)},
            latencies={"bm25": bm25_lat, "shard": shard_lat},
            outputs=outputs,
            counts={
                # the full model's columns, then every shard's
                "retriever.scored_cells": (n["model"] + n["shard"]) * n_docs,
                "baselines.postings_scanned": self.postings_scanned,
                "distributed.merge_candidates": sum(len(r.ranked.items) for runs in shard_runs for r in runs),
                "runfiles.bytes_written": self._bytes_written(outputs),
            },
        )

    def _check(self, ops: Ops, ranked, bm25, merged, shard_runs) -> None:
        n_docs = len(self.corp)
        _check_model_lists(ops, self.encoder, self.w_doc, self.queries["model"], ranked, n_docs)
        for q, rl in zip(self.queries["bm25"], bm25):
            ops.check(oracles.ranked_list_problem(rl.items, K, n_docs, exact_len=False), f"bm25 list {q.qid}")
        for q, rl in list(zip(self.queries["bm25"], bm25))[:ORACLE_QUERIES]:
            ops.check(oracles.bm25_problem(self.index, baselines.bm25_score, q.tokens, n_docs, rl.items, K),
                      f"bm25 brute force {q.qid}")
        for q, m, runs in zip(self.queries["shard"], merged, shard_runs):
            ops.check(oracles.ranked_list_problem(m.items, K, n_docs), f"merged list {q.qid}")
            ops.check(oracles.merge_problem([(r.group, r.ranked.items) for r in runs],
                                            self.plan.group_of, m.items, K), f"shard merge {q.qid}")


WORKLOADS = {w.name: w for w in (Pretrain, Dense, Retrieve)}
