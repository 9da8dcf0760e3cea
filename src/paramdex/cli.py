"""Command-line entry point wiring the modules into experiment pipelines.

Every subcommand reads declared inputs, writes its artifacts under
--out-dir, stamps its main artifact with the resolved config hash and seed
via a ``.meta.json`` sidecar, and prints the paths it wrote. Reruns with the
same inputs, config and seed reproduce artifacts byte for byte.

main resolves the config once: the --config file overlaid with --seed, and
with --skip-pretrain / --skip-finetune as pretrain_epochs = 0 /
finetune_epochs = 0, so the sidecar hash records an ablation. It creates
--out-dir and passes both to the subcommand's handler. A pipeline step that
several subcommands run has one helper: _pretrain_pairs (pairs,
shard-train), _train_dense (train-dense, shard-train --strategy overdense)
and _load_retriever (retrieve, train-overdense, shard-merge).
"""

from __future__ import annotations

import argparse
import logging
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import baselines, checkpoint, corpus as corpus_mod, distributed, evalkit, pairs as pairs_mod
from .config import ExperimentConfig, load_config
from .nn import Encoder, finite_diff_check, forward_backward
from .pairs import TrainingPair
from .retriever import DocidRetriever, init_overdense, train_overdense, train_vanilla
from .runfiles import read_run, write_run
from .synth import generate as synth_generate
from .training import format_logs

log = logging.getLogger(__name__)


def _done(*paths: Path) -> int:
    for p in paths:
        print(p)
    return 0


def _meta(path: Path, cfg: ExperimentConfig, command: str, **extra) -> None:
    checkpoint.write_meta(path, config_hash=cfg.config_hash(), seed=cfg.seed,
                          command=command, **extra)


class _StageClock:
    """Wall seconds per stage of a retrieval command. Only logged: timings
    never go into artifacts or sidecars, which must reproduce byte for byte."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self._last = time.perf_counter()

    def done(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] = now - self._last
        self._last = now

    def log(self, command: str, n_queries: int, timed: tuple[str, ...]) -> None:
        """Log throughput over the `timed` stages and every stage's seconds."""
        busy = sum(self.seconds[s] for s in timed)
        log.info("%s: %d queries, %.1f queries/s over %s; %s", command, n_queries,
                 n_queries / busy if busy > 0 else 0.0, "+".join(timed),
                 ", ".join(f"{s} {t:.3f} s" for s, t in self.seconds.items()))


def _load_corpus_queries(args):
    corp = corpus_mod.load_corpus(args.corpus_dir)
    queries = corpus_mod.load_queries(args.queries, corp.vocab)
    qrels = corpus_mod.load_qrels(args.qrels, corp)
    return corp, queries, qrels


def _load_retriever(path, corp, n_docs: int, what: str) -> DocidRetriever:
    """The retriever in checkpoint `path`, checked against the corpus
    vocabulary and a docid space of n_docs; errors name it `what`."""
    ck_cfg, params, w_doc = checkpoint.load_model(path)
    if w_doc is None:
        raise ValueError(f"{what} {path} has no docid matrix; not a retriever checkpoint")
    if ck_cfg.vocab_size != len(corp.vocab):
        raise ValueError(f"{what} vocabulary does not match the corpus")
    if w_doc.shape[1] != n_docs:
        raise ValueError(f"{what} docid matrix has {w_doc.shape[1]} columns "
                         f"but there are {n_docs} documents to rank")
    return DocidRetriever(Encoder(ck_cfg, params), w_doc)


def _pretrain_pairs(corp, cfg: ExperimentConfig, seed: int) -> list[TrainingPair]:
    return pairs_mod.generate_pretrain_pairs(
        corp, window=cfg.window, m_samples=cfg.m_samples, ngram_n=cfg.ngram_n,
        ngram_min_df=cfg.ngram_min_df, max_ngrams=cfg.max_ngrams, seed=seed,
    )


def _train_dense(corp, queries, qrels, cfg: ExperimentConfig, tcfg):
    """Two-tower training, then the corpus encoded by the document tower."""
    q_enc, d_enc, logs = baselines.train_two_tower(
        corp, queries, qrels, cfg.encoder_config(len(corp.vocab)), tcfg)
    return q_enc, d_enc, baselines.dense_encode_corpus(d_enc, corp, batch_size=cfg.batch_size), logs


def cmd_synth(args, cfg, out) -> int:
    paths = synth_generate(out, n_docs=args.docs, n_train=args.train_queries,
                           n_heldout=args.heldout_queries, seed=cfg.seed)
    _meta(paths["docs"], cfg, "synth", n_docs=args.docs)
    return _done(*paths.values())


def cmd_ingest(args, cfg, out) -> int:
    corp = corpus_mod.ingest_corpus(args.docs, min_freq=cfg.min_freq)
    written = corpus_mod.save_corpus(corp, out)
    _meta(written["docs"], cfg, "ingest", n_docs=len(corp), vocab_size=len(corp.vocab))
    print(f"ingested {len(corp)} documents, vocabulary {len(corp.vocab)}", file=sys.stderr)
    return _done(*written.values())


def cmd_subset(args, cfg, out) -> int:
    corp = corpus_mod.load_corpus(args.corpus_dir)
    qrels = corpus_mod.load_qrels(args.qrels, corp)
    sub, sub_qrels = corpus_mod.sample_subset(corp, qrels, args.strategy, args.size, seed=cfg.seed)
    written = corpus_mod.save_corpus(sub, out)
    qrels_path = out / "qrels.tsv"
    with open(qrels_path, "w", encoding="utf-8") as f:
        for qid in sorted(sub_qrels):
            f.write(f"{qid}\t{sub.external_id(sub_qrels[qid])}\n")
    _meta(written["docs"], cfg, "subset", strategy=args.strategy, size=args.size,
          queries_kept=len(sub_qrels))
    return _done(*written.values(), qrels_path)


def cmd_pairs(args, cfg, out) -> int:
    corp = corpus_mod.load_corpus(args.corpus_dir)
    generated = _pretrain_pairs(corp, cfg, cfg.seed)
    path = out / "pairs.tsv"
    pairs_mod.save_pairs(path, generated, corp)
    counts = {t: sum(1 for p in generated if p.task == t) for t in pairs_mod.PRETRAIN_TASKS}
    _meta(path, cfg, "pairs", **counts)
    print(f"pairs: {counts}", file=sys.stderr)
    return _done(path)


def _save_retriever(out: Path, enc: Encoder, w_doc, cfg, command, logs) -> list[Path]:
    model_path = out / "model.ckpt"
    checkpoint.save_model(model_path, enc.cfg, enc.params, w_doc)
    _meta(model_path, cfg, command)
    log_path = out / "loss_log.txt"
    log_path.write_text(format_logs(logs), encoding="utf-8")
    return [model_path, log_path]


def cmd_train_dense(args, cfg, out) -> int:
    corp, queries, qrels = _load_corpus_queries(args)
    q_enc, d_enc, index, logs = _train_dense(corp, queries, qrels, cfg, cfg.train_config())
    d_path = out / "doc_tower.ckpt"
    checkpoint.save_model(d_path, d_enc.cfg, d_enc.params)
    _meta(d_path, cfg, "train-dense")
    # the dense baseline as a retriever: query tower + transposed index
    written = _save_retriever(out, q_enc, init_overdense(index, len(corp)), cfg, "train-dense", logs)
    return _done(d_path, *written)


def cmd_train_vanilla(args, cfg, out) -> int:
    corp, queries, qrels = _load_corpus_queries(args)
    pretrain = pairs_mod.load_pairs(args.pairs, corp) if args.pairs else []
    enc, w_doc, logs = train_vanilla(corp, pretrain, queries, qrels,
                                     cfg.encoder_config(len(corp.vocab)), cfg.train_config())
    return _done(*_save_retriever(out, enc, w_doc, cfg, "train-vanilla", logs))


def cmd_train_overdense(args, cfg, out) -> int:
    corp, queries, qrels = _load_corpus_queries(args)
    dense = _load_retriever(Path(args.dense_dir) / "model.ckpt", corp, len(corp), "dense model")
    enc, w_doc, logs = train_overdense(corp, dense.w_doc.T, dense.encoder,
                                       queries, qrels, cfg.train_config())
    return _done(*_save_retriever(out, enc, w_doc, cfg, "train-overdense", logs))


def cmd_retrieve(args, cfg, out) -> int:
    clock = _StageClock()
    corp = corpus_mod.load_corpus(args.corpus_dir)
    queries = corpus_mod.load_queries(args.queries, corp.vocab)
    run_path = Path(args.run) if args.run else out / "run.txt"
    if args.method == "model" and not args.model:
        raise ValueError("retrieve --method model requires --model")
    if args.method == "bm25":
        index = baselines.build_inverted_index(corp)
        clock.done("load")
        ranked = [baselines.bm25_retrieve(index, q, cfg.k) for q in queries]
    else:
        model = _load_retriever(args.model, corp, len(corp), "model")
        clock.done("load")
        ranked = model.retrieve_all(queries, cfg.k)
    clock.done("retrieve")
    write_run(run_path, ranked, corp.external_id, tag=cfg.run_tag)
    _meta(run_path, cfg, "retrieve", method=args.method, k=cfg.k)
    clock.done("write")
    clock.log(f"retrieve ({args.method})", len(queries), ("retrieve",))
    return _done(run_path)


def cmd_eval(args, cfg, out) -> int:
    report = evalkit.evaluate_run_file(args.run, args.qrels, ks=cfg.ks(), cutoff=cfg.mrr_cutoff)
    table = evalkit.render_table(report)
    print(table, end="")
    txt_path, csv_path = out / "report.txt", out / "report.csv"
    txt_path.write_text(table, encoding="utf-8")
    csv_path.write_text(evalkit.render_csv(report), encoding="utf-8")
    _meta(csv_path, cfg, "eval")
    _done(txt_path, csv_path)
    return 1 if report.has_nan() else 0


def _shard_seed(seed: int, gid: int) -> int:
    return seed * 1000 + gid + 1


def cmd_shard_train(args, cfg, out) -> int:
    corp, queries, qrels = _load_corpus_queries(args)
    plan = distributed.partition(len(corp), cfg.n_groups, seed=cfg.seed)
    trained = []
    for gid, (sub, sub_qrels) in enumerate(distributed.split_corpus(corp, plan, qrels)):
        tcfg = cfg.train_config()
        tcfg.seed = _shard_seed(cfg.seed, gid)
        try:
            if args.strategy == "vanilla":
                enc, w_doc, logs = train_vanilla(sub, _pretrain_pairs(sub, cfg, tcfg.seed), queries,
                                                 sub_qrels, cfg.encoder_config(len(corp.vocab)), tcfg)
            else:
                q_enc, _, index, logs = _train_dense(sub, queries, sub_qrels, cfg, tcfg)
                enc, w_doc, ft_logs = train_overdense(sub, index, q_enc, queries, sub_qrels, tcfg)
                logs += ft_logs
        except (ValueError, FloatingPointError) as e:
            raise type(e)(f"group {gid}: {e}") from e
        trained.append((enc, w_doc, logs))
        log.info("group %d trained on %d documents, %d labeled queries",
                 gid, len(sub), len(sub_qrels))
    # written only once every group has trained, so a failing group leaves no output
    manifest = out / "shards.tsv"
    distributed.write_manifest(manifest, plan, corp)
    _meta(manifest, cfg, "shard-train", strategy=args.strategy)
    written = [manifest]
    for gid, (enc, w_doc, logs) in enumerate(trained):
        gdir = out / f"group{gid:02d}"
        gdir.mkdir(exist_ok=True)
        written += _save_retriever(gdir, enc, w_doc, cfg, "shard-train", logs)
    return _done(*written)


def cmd_shard_merge(args, cfg, out) -> int:
    clock = _StageClock()
    corp = corpus_mod.load_corpus(args.corpus_dir)
    queries = corpus_mod.load_queries(args.queries, corp.vocab)
    shards_dir = Path(args.shards_dir)
    plan = distributed.read_manifest(shards_dir / "shards.tsv", corp)
    models = []
    for gid, members in enumerate(plan.groups):
        path = shards_dir / f"group{gid:02d}" / "model.ckpt"
        if not path.exists():
            raise ValueError(f"missing model for group {gid}: {path}")
        models.append(_load_retriever(path, corp, len(members), f"group {gid} model"))
    clock.done("load")
    runs = [distributed.shard_retrieve(models, plan, q, per_group_k=cfg.per_group_k) for q in queries]
    clock.done("retrieve")
    merged = [distributed.merge_runs(r, cfg.k, mode=cfg.merge_mode) for r in runs]
    clock.done("merge")
    written = []
    for gid in range(plan.n_groups):
        gpath = out / f"group{gid:02d}.run"
        # shard_retrieve returns one run per group, in group order
        write_run(gpath, [r[gid].ranked for r in runs], corp.external_id, tag=f"{cfg.run_tag}-g{gid}")
        written.append(gpath)
    merged_path = out / "merged.run"
    write_run(merged_path, merged, corp.external_id, tag=f"{cfg.run_tag}-{cfg.merge_mode}")
    _meta(merged_path, cfg, "shard-merge", mode=cfg.merge_mode)
    written.append(merged_path)
    clock.done("write")
    clock.log("shard-merge", len(queries), ("retrieve", "merge"))
    return _done(*written)


def _group_runs(runs_dir: Path) -> list[Path]:
    """The n group<id>.run files under runs_dir in group order; their ids must be 0..n-1."""
    paths = sorted(runs_dir.glob("group*.run"))
    by_id = {}
    for path in paths:
        m = re.fullmatch(r"group([0-9]+)\.run", path.name)
        if not m:
            raise ValueError(f"{path}: expected a run file named group<id>.run")
        by_id[int(m.group(1))] = path
    for gid in range(len(paths) or 1):  # no file at all is a missing group 0
        if gid not in by_id:
            raise ValueError(f"no run file for group {gid} among the {len(paths)} group*.run "
                             f"files under {runs_dir}")
    return [by_id[gid] for gid in range(len(paths))]


def cmd_diag_scores(args, cfg, out) -> int:
    run_paths = _group_runs(Path(args.runs_dir))
    rows = distributed.score_distribution_stats([
        np.array([score for entries in read_run(path).values() for _, _, score in entries])
        for path in run_paths
    ])
    ratio = distributed.mean_spread_ratio(rows)
    csv_path = out / "score_stats.csv"
    csv_path.write_text(distributed.render_stats_csv(rows), encoding="utf-8")
    _meta(csv_path, cfg, "diag-scores", groups=len(rows))
    print(f"spread of group means / mean within-group std = {ratio:.4f}")
    for r in rows:
        print(f"group {r['group']}: mean {r['mean']:.4f} std {r['std']:.4f} "
              f"min {r['min']:.4f} max {r['max']:.4f}")
    return _done(csv_path)


def cmd_gradcheck(args, cfg, out) -> int:
    # fixed probe: 32-token vocabulary, 8 docids, a batch of 6, step 1e-4
    enc_cfg, n_docs, threshold = cfg.encoder_config(32), 8, 1e-4
    rng = np.random.default_rng(cfg.seed)
    enc = Encoder.init(enc_cfg, rng, dtype=np.float64)
    w_doc = rng.normal(0.0, 0.02, size=(enc_cfg.d_model, n_docs))
    batch = [
        TrainingPair(
            list(rng.integers(3, enc_cfg.vocab_size, size=int(rng.integers(2, 16)))),
            int(rng.integers(0, n_docs)), "terms",
        )
        for _ in range(6)
    ]
    params = dict(enc.params, w_doc=w_doc)

    def loss_and_grad(p):
        return forward_backward(
            Encoder(enc_cfg, {k: v for k, v in p.items() if k != "w_doc"}), p["w_doc"], batch
        )

    worst, per_param = finite_diff_check(
        loss_and_grad, params, eps=1e-4,
        max_coords_per_param=args.coords, rng=np.random.default_rng(cfg.seed + 1),
    )
    for name in sorted(per_param, key=per_param.get, reverse=True):
        print(f"{name:24s} {per_param[name]:.3e}")
    print(f"max relative error: {worst:.3e} (threshold {threshold:g})")
    return 0 if worst < threshold else 1


def _command(sub, name: str, func, help: str, *required: str) -> argparse.ArgumentParser:
    """Subcommand `name` running func(args, cfg, out), with the given
    required flags; build_parser adds --config, --seed and --out-dir last."""
    sp = sub.add_parser(name, help=help)
    for flag in required:
        sp.add_argument(flag, required=True)
    sp.set_defaults(func=func)
    return sp


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="paramdex",
        description="Model-based retrieval experiments with a trainable docid matrix.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    corpus_queries_qrels = ("--corpus-dir", "--queries", "--qrels")

    sp = _command(sub, "synth", cmd_synth, "generate a synthetic corpus with queries and qrels")
    sp.add_argument("--docs", type=int, default=1000)
    sp.add_argument("--train-queries", type=int, default=None)
    sp.add_argument("--heldout-queries", type=int, default=None)

    _command(sub, "ingest", cmd_ingest, "tokenize a JSONL document file into a corpus directory",
             "--docs")

    sp = _command(sub, "subset", cmd_subset, "sample an evaluation subset by clicks or at random",
                  "--corpus-dir", "--qrels")
    sp.add_argument("--strategy", choices=("top_click", "random"), required=True)
    sp.add_argument("--size", type=int, required=True)

    _command(sub, "pairs", cmd_pairs, "generate self-supervised pre-training pairs", "--corpus-dir")

    _command(sub, "train-dense", cmd_train_dense,
             "train the two-tower baseline and encode the corpus", *corpus_queries_qrels)

    sp = _command(sub, "train-vanilla", cmd_train_vanilla, "train the retriever from scratch",
                  *corpus_queries_qrels)
    sp.add_argument("--pairs", help="pre-training pairs tsv")
    sp.add_argument("--skip-pretrain", action="store_true", help="same as pretrain_epochs = 0")
    sp.add_argument("--skip-finetune", action="store_true", help="same as finetune_epochs = 0")

    sp = _command(sub, "train-overdense", cmd_train_overdense,
                  "initialize from the dense baseline and fine-tune", *corpus_queries_qrels)
    sp.add_argument("--dense-dir", required=True, help="train-dense output directory")
    sp.add_argument("--skip-finetune", action="store_true", help="same as finetune_epochs = 0")

    sp = _command(sub, "retrieve", cmd_retrieve, "write a run file for a query set",
                  "--corpus-dir", "--queries")
    sp.add_argument("--model", help="retriever checkpoint (required for --method model)")
    sp.add_argument("--method", choices=("model", "bm25"), default="model")
    sp.add_argument("--run", help="output run file path (default <out-dir>/run.txt)")

    _command(sub, "eval", cmd_eval, "score a run file against qrels", "--run", "--qrels")

    sp = _command(sub, "shard-train", cmd_shard_train,
                  "partition the corpus and train one model per group", *corpus_queries_qrels)
    sp.add_argument("--strategy", choices=("vanilla", "overdense"), default="vanilla")

    _command(sub, "shard-merge", cmd_shard_merge, "retrieve per group and merge the ranked lists",
             "--shards-dir", "--corpus-dir", "--queries")

    sp = _command(sub, "diag-scores", cmd_diag_scores, "per-group score distribution report")
    sp.add_argument("--runs-dir", required=True, help="directory with group*.run files")

    sp = _command(sub, "gradcheck", cmd_gradcheck, "finite-difference check of the analytic gradients")
    sp.add_argument("--coords", type=int, default=4)

    for sp in sub.choices.values():
        sp.add_argument("--config", help="experiment config file (key = value lines)")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--out-dir", default=".", help="directory for output artifacts")
    return ap


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    # the ablation flags are config overrides, so the sidecar hash records them
    overrides = {"seed": args.seed}
    if getattr(args, "skip_pretrain", False):
        overrides["pretrain_epochs"] = 0
    if getattr(args, "skip_finetune", False):
        overrides["finetune_epochs"] = 0
    try:
        cfg = load_config(args.config, overrides)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return args.func(args, cfg, out)
    except (ValueError, OSError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
