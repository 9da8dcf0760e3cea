"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Training-based criteria use seeded synthetic corpora and
finish in about a minute on a single laptop core.
"""

from __future__ import annotations

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from paramdex.baselines import (
    bm25_score,
    build_inverted_index,
    dense_encode_corpus,
    train_two_tower,
)
from paramdex.cli import main as cli_main
from paramdex.corpus import ingest_corpus, load_qrels, load_queries
from paramdex.distributed import (
    mean_spread_ratio,
    merge_runs,
    partition,
    render_stats_csv,
    score_distribution_stats,
    shard_retrieve,
    split_corpus,
)
from paramdex.evalkit import evaluate, evaluate_run_file
from paramdex.nn import Encoder, EncoderConfig, finite_diff_check, forward_backward, softmax
from paramdex.pairs import TrainingPair, generate_pretrain_pairs
from paramdex.retriever import (
    DocidRetriever,
    init_overdense,
    top_k,
    train_overdense,
    train_vanilla,
)
from paramdex.runfiles import write_run
from paramdex.synth import generate
from paramdex.training import TrainConfig

from conftest import as_pairs, corpus_from_texts, merged_items


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _recall1(model, queries, qrels):
    hits = sum(1 for q in queries if model.retrieve(q, 1).items[0][0] == qrels[q.qid])
    return hits / len(queries)


def _recall_at(model, queries, qrels, k):
    hits = sum(
        1 for q in queries
        if qrels[q.qid] in [d for d, _ in model.retrieve(q, k).items]
    )
    return hits / len(queries)


def _runs_dict(ranked_lists):
    return {rl.qid: [d for d, _ in rl.items] for rl in ranked_lists}


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    cfg = EncoderConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2, d_ff=64, max_len=32)
    rng = np.random.default_rng(2024)
    enc = Encoder.init(cfg, rng, dtype=np.float64)
    w_doc = rng.normal(0.0, 0.02, size=(16, 8))
    batch = [
        TrainingPair(list(rng.integers(3, 32, size=int(rng.integers(2, 16)))),
                     int(rng.integers(0, 8)), "terms")
        for _ in range(6)
    ]
    params = dict(enc.params, w_doc=w_doc)

    def fn(p):
        return forward_backward(
            Encoder(cfg, {k: v for k, v in p.items() if k != "w_doc"}), p["w_doc"], batch
        )

    worst, per_param = finite_diff_check(
        fn, params, eps=1e-4, max_coords_per_param=4, rng=np.random.default_rng(0)
    )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and all(v < 1e-4 for v in per_param.values()) and elapsed < 60
    report(1, "gradient suite", ok,
           f"max rel err {worst:.2e} over {len(per_param)} parameter groups, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_softmax_normalization():
    rng = np.random.default_rng(7)
    worst_sum = 0.0
    min_entry = np.inf
    count = 0
    for _ in range(50):
        d = int(rng.integers(4, 65))
        n_docs = int(rng.integers(3, 3000))
        w = rng.normal(0, 1.0, size=(d, n_docs)).astype(np.float32)
        for _ in range(20):
            v = (rng.normal(0, 2.0, size=d)).astype(np.float32)
            probs = softmax(v @ w)
            worst_sum = max(worst_sum, abs(float(np.sum(probs, dtype=np.float64)) - 1.0))
            min_entry = min(min_entry, float(probs.min()))
            count += 1
    ok = count == 1000 and worst_sum <= 1e-6 and min_entry >= 0.0
    report(2, "softmax normalization", ok,
           f"{count} queries, worst |sum-1| {worst_sum:.2e}, min entry {min_entry:.2e}")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_oracle_equivalences():
    rng = np.random.default_rng(11)

    # retrieve_topk vs exhaustive sort at |D| = 10^4
    logits = rng.normal(size=10_000)
    logits[777] = logits[4242]  # force a tie
    oracle = sorted(range(10_000), key=lambda i: (-logits[i], i))
    topk_ok = all(
        top_k(logits, k)[0].tolist() == oracle[:k]
        for k in (1, 10, 100, 10_000)
    )

    # BM25 vs direct-formula oracle within 1e-9
    words = [f"w{i}" for i in range(30)]
    texts = [" ".join(rng.choice(words, size=rng.integers(5, 30))) for _ in range(60)]
    corp = corpus_from_texts(texts)
    index = build_inverted_index(corp)
    n, avgdl = len(corp), index.avgdl
    bm_err = 0.0
    for _ in range(50):
        q = list(rng.integers(3, len(corp.vocab), size=4))
        docid = int(rng.integers(0, n))
        doc = corp.doc(docid).tokens
        expected = 0.0
        for t in set(q):
            tf = sum(1 for x in doc if x == t)
            if tf == 0:
                continue
            df = sum(1 for d in corp.docs if t in d.tokens)
            idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
            expected += idf * tf * 2.2 / (tf + 1.2 * (1 - 0.75 + 0.75 * len(doc) / avgdl))
        bm_err = max(bm_err, abs(bm25_score(index, q, docid) - expected))

    # merging shards scored by one shared model == unsharded top-k, exactly
    full_logits = rng.normal(size=500)
    plan = partition(500, 4, seed=3)
    shard_lists = [
        sorted(((int(d), float(full_logits[d])) for d in members),
               key=lambda e: (-e[1], e[0]))
        for members in plan.groups
    ]
    merge_ok = all(
        merged_items(shard_lists, k, mode="raw")
        == as_pairs(*top_k(full_logits, k))
        for k in (1, 7, 50, 500)
    )

    ok = topk_ok and bm_err < 1e-9 and merge_ok
    report(3, "oracle equivalences", ok,
           f"topk exact={topk_ok}, bm25 max err {bm_err:.1e}, shard merge exact={merge_ok}")


# ----------------------------------------------------- criteria 4 and 5 setup

@pytest.fixture(scope="module")
def thousand_doc_overdense(tmp_path_factory):
    """Shared fixture: 1000-doc synthetic corpus, dense baseline, fine-tuned
    retriever. Feeds the zero-shot identity and memorization criteria."""
    t0 = time.perf_counter()
    root = tmp_path_factory.mktemp("synth1000")
    paths = generate(root, n_docs=1000, seed=7)
    corp = ingest_corpus(paths["docs"])
    train_q = load_queries(paths["train_queries"], corp.vocab)
    train_qrels = load_qrels(paths["train_qrels"], corp)
    heldout_q = load_queries(paths["heldout_queries"], corp.vocab)

    enc_cfg = EncoderConfig(vocab_size=len(corp.vocab))  # default desk architecture
    tt_cfg = TrainConfig(lr=1e-3, batch_size=32, finetune_epochs=8, plateau_patience=3, seed=0)
    q_tower, d_tower, _ = train_two_tower(corp, train_q, train_qrels, enc_cfg, tt_cfg)
    index = dense_encode_corpus(d_tower, corp, batch_size=32)

    ft_cfg = TrainConfig(lr=1e-3, batch_size=32, finetune_epochs=25,
                         plateau_patience=4, plateau_min_delta=1e-3, seed=0)
    enc, w_doc, _ = train_overdense(corp, index, q_tower, train_q, train_qrels, ft_cfg)
    return {
        "corpus": corp,
        "train_q": train_q, "train_qrels": train_qrels, "heldout_q": heldout_q,
        "q_tower": q_tower, "index": index,
        "finetuned": DocidRetriever(enc, w_doc),
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_4_overdense_zero_shot_identity(thousand_doc_overdense, tmp_path):
    fx = thousand_doc_overdense
    corp, queries = fx["corpus"], fx["heldout_q"]

    dense = DocidRetriever(fx["q_tower"], init_overdense(fx["index"], len(corp)))
    dense_run = tmp_path / "dense.run"
    write_run(dense_run, dense.retrieve_all(queries, 100), corp.external_id, tag="baseline")

    enc0, w0, logs = train_overdense(
        corp, fx["index"], fx["q_tower"], fx["train_q"], fx["train_qrels"],
        TrainConfig(finetune_epochs=0),
    )
    zero_shot = DocidRetriever(enc0, w0)
    zs_run = tmp_path / "zero_shot.run"
    write_run(zs_run, zero_shot.retrieve_all(queries, 100), corp.external_id, tag="baseline")

    identical = dense_run.read_bytes() == zs_run.read_bytes()
    ok = identical and logs == []
    report(4, "overdense zero-shot identity", ok,
           f"run files byte-identical={identical} over {len(queries)} queries x k=100")


def test_criterion_5_memorization(thousand_doc_overdense):
    fx = thousand_doc_overdense
    r1 = _recall1(fx["finetuned"], fx["train_q"], fx["train_qrels"])
    ok = r1 >= 0.95 and fx["elapsed"] < 900
    report(5, "memorization", ok,
           f"train Recall@1 {r1:.3f} (need >= 0.95), pipeline {fx['elapsed']:.0f}s of 900s")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_ablation_direction(tmp_path):
    paths = generate(tmp_path, n_docs=300, n_train=150, n_heldout=120, n_topics=10,
                     query_len=(3, 6), query_distractors=(2, 3), distractor_head=4, seed=11)
    corp = ingest_corpus(paths["docs"])
    tq = load_queries(paths["train_queries"], corp.vocab)
    tqr = load_qrels(paths["train_qrels"], corp)
    hq = load_queries(paths["heldout_queries"], corp.vocab)
    hqr = load_qrels(paths["heldout_qrels"], corp)
    enc_cfg = EncoderConfig(vocab_size=len(corp.vocab), d_model=32, n_layers=1,
                            n_heads=2, d_ff=128, max_len=64)
    pairs = generate_pretrain_pairs(corp, window=32, m_samples=3, ngram_n=3,
                                    ngram_min_df=2, max_ngrams=2 * len(corp), seed=0)

    enc0 = Encoder.init(enc_cfg, np.random.default_rng(np.random.SeedSequence([0, 0])))
    w0 = np.random.default_rng(np.random.SeedSequence([0, 1])).normal(
        0, 0.02, size=(enc_cfg.d_model, len(corp))).astype(np.float32)
    untrained = _recall_at(DocidRetriever(enc0, w0), hq, hqr, 20)

    cfg = TrainConfig(lr=1e-3, batch_size=32, pretrain_epochs=4, finetune_epochs=2,
                      plateau_patience=10, seed=0)
    enc_f, w_f, _ = train_vanilla(corp, pairs, tq, tqr, enc_cfg, cfg)
    full = _recall_at(DocidRetriever(enc_f, w_f), hq, hqr, 20)

    enc_nf, w_nf, _ = train_vanilla(corp, pairs, tq, tqr, enc_cfg,
                                    dataclasses.replace(cfg, finetune_epochs=0))
    no_finetune = _recall_at(DocidRetriever(enc_nf, w_nf), hq, hqr, 20)

    cfg_np = TrainConfig(lr=1e-3, batch_size=32, pretrain_epochs=0, finetune_epochs=8,
                         plateau_patience=10, seed=0)
    enc_np, w_np, _ = train_vanilla(corp, pairs, tq, tqr, enc_cfg, cfg_np)
    no_pretrain = _recall_at(DocidRetriever(enc_np, w_np), hq, hqr, 20)

    # the same ordering must come out of run files through the metric kit
    full_run = tmp_path / "full.run"
    np_run = tmp_path / "no_pretrain.run"
    write_run(full_run, DocidRetriever(enc_f, w_f).retrieve_all(hq, 20), corp.external_id)
    write_run(np_run, DocidRetriever(enc_np, w_np).retrieve_all(hq, 20), corp.external_id)
    report_full = evaluate_run_file(full_run, paths["heldout_qrels"], ks=(20,), cutoff=20)
    report_np = evaluate_run_file(np_run, paths["heldout_qrels"], ks=(20,), cutoff=20)
    report_ordering = report_full.metrics["recall@20"] > report_np.metrics["recall@20"]

    ok = (no_pretrain < 0.1) and (full > 0.4) and (untrained < no_finetune < full) \
        and report_ordering
    report(6, "ablation direction", ok,
           f"heldout Recall@20: untrained {untrained:.3f} < w/o-finetune {no_finetune:.3f} "
           f"< full {full:.3f}; w/o-pretrain {no_pretrain:.3f} < 0.1; "
           f"run-file reports agree={report_ordering}")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_distributed_diagnosis(tmp_path):
    paths = generate(tmp_path, n_docs=400, n_train=200, n_heldout=100, n_topics=10,
                     query_len=(3, 6), seed=22)
    corp = ingest_corpus(paths["docs"])
    tq = load_queries(paths["train_queries"], corp.vocab)
    tqr = load_qrels(paths["train_qrels"], corp)
    enc_cfg = EncoderConfig(vocab_size=len(corp.vocab), d_model=32, n_layers=1,
                            n_heads=2, d_ff=128, max_len=64)
    plan = partition(len(corp), 4, seed=5)

    models = []
    for gid, (sub, sub_qrels) in enumerate(split_corpus(corp, plan, tqr)):
        tt_cfg = TrainConfig(lr=1e-3, batch_size=8, finetune_epochs=10,
                             plateau_patience=100, seed=1000 + gid)
        q_tower, d_tower, _ = train_two_tower(sub, tq, sub_qrels, enc_cfg, tt_cfg)
        index = dense_encode_corpus(d_tower, sub, batch_size=32)
        ft_cfg = TrainConfig(lr=1e-3, batch_size=8, finetune_epochs=6,
                             plateau_patience=100, seed=2000 + gid)
        enc, w_doc, _ = train_overdense(sub, index, q_tower, tq, sub_qrels, ft_cfg)
        models.append(DocidRetriever(enc, w_doc))

    group_runs = [[] for _ in range(plan.n_groups)]
    merged_raw = []
    for q in tq:
        runs = shard_retrieve(models, plan, q, per_group_k=20)
        for r in runs:
            group_runs[r.group].append(r.ranked)
        merged_raw.append(merge_runs(runs, 100, mode="raw"))

    # the diagnostic report: parse the rendered CSV back into rows
    csv_text = render_stats_csv(score_distribution_stats(
        [np.concatenate([rl.scores for rl in runs]) for runs in group_runs]))
    header, *lines = csv_text.strip().split("\n")
    cols = header.split(",")
    rows = [dict(zip(cols, (float(x) for x in ln.split(",")))) for ln in lines]
    ratio = mean_spread_ratio(rows)

    best_local = 0.0
    for gid in range(plan.n_groups):
        local = {qid: d for qid, d in tqr.items() if plan.group_of[d] == gid}
        local_runs = {rl.qid: [d for d, _ in rl.items]
                      for rl in group_runs[gid] if rl.qid in local}
        best_local = max(best_local, evaluate(local_runs, local, cutoff=100).metrics["mrr"])
    raw_mrr = evaluate(_runs_dict(merged_raw), tqr, cutoff=100).metrics["mrr"]

    # constructed shifted-score fixture: one shard's scale sits +5 higher
    rng = np.random.default_rng(0)
    positives = {}
    fixture_raw, fixture_z = {}, {}
    for qi in range(60):
        qid = f"f{qi}"
        pos_group = qi % 2
        lists = []
        for g, shift in ((0, 0.0), (1, 5.0)):
            scores = rng.normal(0, 1, 30) + shift
            ids = [g * 1000 + j for j in range(30)]
            if g == pos_group:
                scores[0] = 3.5 + shift  # positive near its own shard's top
                positives[qid] = ids[0]
            lists.append(list(zip(ids, map(float, scores))))
        fixture_raw[qid] = [d for d, _ in merged_items(lists, 20, mode="raw")]
        fixture_z[qid] = [d for d, _ in merged_items(lists, 20, mode="zscore")]
    fr = evaluate(fixture_raw, positives, ks=(20,), cutoff=20).metrics["mrr"]
    fz = evaluate(fixture_z, positives, ks=(20,), cutoff=20).metrics["mrr"]

    ok = ratio > 0.5 and raw_mrr < best_local and fz > fr
    report(7, "distributed diagnosis", ok,
           f"mean-spread/std ratio {ratio:.2f} (> 0.5), raw merge MRR {raw_mrr:.3f} < "
           f"best shard {best_local:.3f}, fixture zscore {fz:.3f} > raw {fr:.3f}")


# ---------------------------------------------------------------- criterion 8

ACCEPT_CFG = """
d_model = 16
n_layers = 1
n_heads = 2
d_ff = 32
max_len = 32
window = 16
m_samples = 2
lr = 0.003
batch_size = 8
pretrain_epochs = 2
finetune_epochs = 3
plateau_patience = 10
k = 10
eval_ks = 1,5,10
mrr_cutoff = 10
n_groups = 2
per_group_k = 5
"""


def _run_pipeline(root: Path, cfg: Path) -> dict[str, bytes]:
    data = root / "data"
    corpus_dir = root / "corpus"
    steps = [
        ["synth", "--docs", "40", "--train-queries", "20", "--heldout-queries", "8",
         "--out-dir", str(data), "--config", str(cfg)],
        ["ingest", "--docs", str(data / "docs.jsonl"), "--out-dir", str(corpus_dir),
         "--config", str(cfg)],
        ["pairs", "--corpus-dir", str(corpus_dir), "--out-dir", str(root / "pairs"),
         "--config", str(cfg)],
        ["train-vanilla", "--corpus-dir", str(corpus_dir),
         "--queries", str(data / "train_queries.tsv"),
         "--qrels", str(data / "train_qrels.tsv"),
         "--pairs", str(root / "pairs" / "pairs.tsv"),
         "--out-dir", str(root / "vanilla"), "--config", str(cfg)],
        ["train-dense", "--corpus-dir", str(corpus_dir),
         "--queries", str(data / "train_queries.tsv"),
         "--qrels", str(data / "train_qrels.tsv"),
         "--out-dir", str(root / "dense"), "--config", str(cfg)],
        ["train-overdense", "--corpus-dir", str(corpus_dir),
         "--queries", str(data / "train_queries.tsv"),
         "--qrels", str(data / "train_qrels.tsv"),
         "--dense-dir", str(root / "dense"),
         "--out-dir", str(root / "overdense"), "--config", str(cfg)],
        ["retrieve", "--corpus-dir", str(corpus_dir),
         "--queries", str(data / "heldout_queries.tsv"),
         "--model", str(root / "overdense" / "model.ckpt"),
         "--out-dir", str(root / "run"), "--config", str(cfg)],
        ["eval", "--run", str(root / "run" / "run.txt"),
         "--qrels", str(data / "heldout_qrels.tsv"),
         "--out-dir", str(root / "eval"), "--config", str(cfg)],
        ["shard-train", "--corpus-dir", str(corpus_dir),
         "--queries", str(data / "train_queries.tsv"),
         "--qrels", str(data / "train_qrels.tsv"), "--strategy", "vanilla",
         "--out-dir", str(root / "shards"), "--config", str(cfg)],
        ["shard-merge", "--shards-dir", str(root / "shards"),
         "--corpus-dir", str(corpus_dir),
         "--queries", str(data / "train_queries.tsv"),
         "--out-dir", str(root / "merged"), "--config", str(cfg)],
        ["diag-scores", "--runs-dir", str(root / "merged"),
         "--out-dir", str(root / "diag"), "--config", str(cfg)],
    ]
    for argv in steps:
        assert cli_main(argv) == 0, f"pipeline step failed: {argv[0]}"
    artifacts = [
        data / "docs.jsonl",
        corpus_dir / "docs.jsonl", corpus_dir / "vocab.tsv",
        root / "pairs" / "pairs.tsv",
        root / "vanilla" / "model.ckpt", root / "vanilla" / "loss_log.txt",
        root / "dense" / "model.ckpt",
        root / "overdense" / "model.ckpt",
        root / "run" / "run.txt",
        root / "eval" / "report.csv", root / "eval" / "report.txt",
        root / "shards" / "shards.tsv",
        root / "shards" / "group00" / "model.ckpt",
        root / "merged" / "merged.run", root / "merged" / "group00.run",
        root / "diag" / "score_stats.csv",
    ]
    return {str(p.relative_to(root)): p.read_bytes() for p in artifacts}


def test_criterion_8_determinism(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(ACCEPT_CFG)
    a = _run_pipeline(tmp_path / "a", cfg)
    b = _run_pipeline(tmp_path / "b", cfg)
    differing = sorted(name for name in a if a[name] != b[name])
    ok = not differing and set(a) == set(b)
    report(8, "determinism", ok,
           f"{len(a)} artifacts byte-compared, differing: {differing or 'none'}")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_metric_kit():
    rng = np.random.default_rng(123)
    docs = [f"d{i}" for i in range(50)]
    runs = {f"q{i}": list(rng.permutation(docs))[:25] for i in range(100)}
    qrels = {f"q{i}": docs[rng.integers(50)] for i in range(100)}
    metrics = evaluate(runs, qrels, ks=(1, 5, 20, 25), cutoff=25).metrics
    exact = True
    for k in (1, 5, 20, 25):
        hits = sum(1 for qid, pos in qrels.items() if pos in runs[qid][:k])
        exact = exact and metrics[f"recall@{k}"] == hits / 100
    rr_total = 0.0
    for qid, pos in qrels.items():
        ranked = runs[qid][:25]
        rr_total += 1.0 / (ranked.index(pos) + 1) if pos in ranked else 0.0
    exact = exact and metrics["mrr"] == rr_total / 100

    fixture = {
        "q1": ["p1", "x", "y"],
        "q2": ["a", "b", "c", "p2"],
        "q3": ["a", "b"],
    }
    fixture_qrels = {"q1": "p1", "q2": "p2", "q3": "p3"}
    value = evaluate(fixture, fixture_qrels, cutoff=100).metrics["mrr"]
    fixture_ok = abs(value - (1.0 + 0.25 + 0.0) / 3) < 1e-12 and f"{value:.6f}" == "0.416667"

    ok = exact and fixture_ok
    report(9, "metric kit", ok,
           f"recount-oracle exact={exact}, rank fixture mrr={value:.6f}")
