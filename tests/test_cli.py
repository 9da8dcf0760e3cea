import argparse
import hashlib
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paramdex
from paramdex import checkpoint
from paramdex.cli import build_parser, main
from paramdex.corpus import load_corpus
from paramdex.distributed import partition, read_manifest, write_manifest
from paramdex.nn import Encoder, EncoderConfig

from test_acceptance import ACCEPT_CFG, _run_pipeline
from test_checkpoint import rewrite_header


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


TINY_CFG = """
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


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("ws")
    cfg = ws / "exp.cfg"
    cfg.write_text(TINY_CFG)
    data = ws / "data"
    assert run_cli("synth", "--docs", 40, "--train-queries", 20, "--heldout-queries", 8,
                   "--out-dir", data, "--config", cfg) == 0
    corpus_dir = ws / "corpus"
    assert run_cli("ingest", "--docs", data / "docs.jsonl", "--out-dir", corpus_dir,
                   "--config", cfg) == 0
    pairs_dir = ws / "pairs"
    assert run_cli("pairs", "--corpus-dir", corpus_dir, "--out-dir", pairs_dir,
                   "--config", cfg) == 0
    return {"ws": ws, "cfg": cfg, "data": data, "corpus": corpus_dir,
            "pairs": pairs_dir / "pairs.tsv"}


def test_synth_ingest_pairs_artifacts(workspace):
    assert (workspace["corpus"] / "docs.jsonl").exists()
    assert (workspace["corpus"] / "vocab.tsv").exists()
    assert workspace["pairs"].exists()
    meta = json.loads((workspace["corpus"] / "docs.jsonl.meta.json").read_text())
    assert meta["command"] == "ingest" and "config_hash" in meta


def test_subset_command(workspace, tmp_path):
    out = tmp_path / "sub"
    assert run_cli("subset", "--corpus-dir", workspace["corpus"],
                   "--qrels", workspace["data"] / "train_qrels.tsv",
                   "--strategy", "top_click", "--size", 20,
                   "--out-dir", out, "--config", workspace["cfg"]) == 0
    assert len((out / "docs.jsonl").read_text().splitlines()) == 20
    assert (out / "qrels.tsv").exists()


def test_train_vanilla_retrieve_eval(workspace, tmp_path):
    model_dir = tmp_path / "vanilla"
    assert run_cli("train-vanilla", "--corpus-dir", workspace["corpus"],
                   "--queries", workspace["data"] / "train_queries.tsv",
                   "--qrels", workspace["data"] / "train_qrels.tsv",
                   "--pairs", workspace["pairs"],
                   "--out-dir", model_dir, "--config", workspace["cfg"]) == 0
    assert (model_dir / "model.ckpt").exists()
    assert (model_dir / "loss_log.txt").read_text().startswith("pretrain\t0\t")

    run_dir = tmp_path / "run"
    assert run_cli("retrieve", "--corpus-dir", workspace["corpus"],
                   "--queries", workspace["data"] / "train_queries.tsv",
                   "--model", model_dir / "model.ckpt",
                   "--out-dir", run_dir, "--config", workspace["cfg"]) == 0
    run_path = run_dir / "run.txt"
    first = run_path.read_bytes()
    # rerun: byte-identical
    assert run_cli("retrieve", "--corpus-dir", workspace["corpus"],
                   "--queries", workspace["data"] / "train_queries.tsv",
                   "--model", model_dir / "model.ckpt",
                   "--out-dir", run_dir, "--config", workspace["cfg"]) == 0
    assert run_path.read_bytes() == first

    eval_dir = tmp_path / "eval"
    assert run_cli("eval", "--run", run_path,
                   "--qrels", workspace["data"] / "train_qrels.tsv",
                   "--out-dir", eval_dir, "--config", workspace["cfg"]) == 0
    report = (eval_dir / "report.csv").read_text()
    assert report.startswith("metric,value")


def test_retrieve_bm25(workspace, tmp_path):
    run_dir = tmp_path / "bm25"
    assert run_cli("retrieve", "--corpus-dir", workspace["corpus"],
                   "--queries", workspace["data"] / "train_queries.tsv",
                   "--method", "bm25", "--out-dir", run_dir,
                   "--config", workspace["cfg"]) == 0
    lines = (run_dir / "run.txt").read_text().splitlines()
    assert lines and all(len(l.split()) == 6 for l in lines)


_STAGE_LOG = r"[\d.]+ queries/s over {timed}; load [\d.]+ s, {stages}"


def test_retrieve_logs_throughput_outside_its_artifacts(workspace, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="paramdex")
    outputs = []
    for rerun in ("a", "b"):
        run_dir = tmp_path / rerun
        assert run_cli("retrieve", "--corpus-dir", workspace["corpus"],
                       "--queries", workspace["data"] / "heldout_queries.tsv",
                       "--method", "bm25", "--out-dir", run_dir,
                       "--config", workspace["cfg"]) == 0
        outputs.append([(run_dir / n).read_bytes() for n in ("run.txt", "run.txt.meta.json")])
    logged = [r.getMessage() for r in caplog.records if r.name == "paramdex.cli"]
    pattern = "retrieve \\(bm25\\): 8 queries, " + _STAGE_LOG.format(
        timed="retrieve", stages=r"retrieve [\d.]+ s, write [\d.]+ s")
    assert len([m for m in logged if re.fullmatch(pattern, m)]) == 2
    # timings go to the log only: the run file and its sidecar repeat byte for byte
    assert outputs[0] == outputs[1]


def test_dense_then_overdense_zero_shot_identity(workspace, tmp_path):
    dense_dir = tmp_path / "dense"
    assert run_cli("train-dense", "--corpus-dir", workspace["corpus"],
                   "--queries", workspace["data"] / "train_queries.tsv",
                   "--qrels", workspace["data"] / "train_qrels.tsv",
                   "--out-dir", dense_dir, "--config", workspace["cfg"]) == 0
    written = {p.name for p in dense_dir.iterdir() if not p.name.endswith(".meta.json")}
    assert written == {"model.ckpt", "loss_log.txt"}

    od_dir = tmp_path / "overdense0"
    assert run_cli("train-overdense", "--corpus-dir", workspace["corpus"],
                   "--queries", workspace["data"] / "train_queries.tsv",
                   "--qrels", workspace["data"] / "train_qrels.tsv",
                   "--dense-dir", dense_dir, "--skip-finetune",
                   "--out-dir", od_dir, "--config", workspace["cfg"]) == 0

    # zero fine-tuning: the two model checkpoints retrieve identically
    for model in (dense_dir / "model.ckpt", od_dir / "model.ckpt"):
        out = tmp_path / f"run_{model.parent.name}"
        assert run_cli("retrieve", "--corpus-dir", workspace["corpus"],
                       "--queries", workspace["data"] / "heldout_queries.tsv",
                       "--model", model, "--out-dir", out,
                       "--config", workspace["cfg"]) == 0
    a = (tmp_path / "run_dense" / "run.txt").read_bytes()
    b = (tmp_path / "run_overdense0" / "run.txt").read_bytes()
    assert a == b


def test_shard_pipeline(workspace, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="paramdex")
    shards_dir = tmp_path / "shards"
    assert run_cli("shard-train", "--corpus-dir", workspace["corpus"],
                   "--queries", workspace["data"] / "train_queries.tsv",
                   "--qrels", workspace["data"] / "train_qrels.tsv",
                   "--strategy", "vanilla",
                   "--out-dir", shards_dir, "--config", workspace["cfg"]) == 0
    assert (shards_dir / "shards.tsv").exists()
    assert (shards_dir / "group00" / "model.ckpt").exists()
    assert (shards_dir / "group01" / "model.ckpt").exists()

    merge_dir = tmp_path / "merged"
    assert run_cli("shard-merge", "--shards-dir", shards_dir,
                   "--corpus-dir", workspace["corpus"],
                   "--queries", workspace["data"] / "train_queries.tsv",
                   "--out-dir", merge_dir, "--config", workspace["cfg"]) == 0
    assert (merge_dir / "merged.run").exists()
    assert (merge_dir / "group00.run").exists()
    pattern = "shard-merge: 20 queries, " + _STAGE_LOG.format(
        timed=r"retrieve\+merge", stages=r"retrieve [\d.]+ s, merge [\d.]+ s, write [\d.]+ s")
    assert any(re.fullmatch(pattern, r.getMessage()) for r in caplog.records)

    diag_dir = tmp_path / "diag"
    assert run_cli("diag-scores", "--runs-dir", merge_dir,
                   "--out-dir", diag_dir, "--config", workspace["cfg"]) == 0
    stats = (diag_dir / "score_stats.csv").read_text().splitlines()
    assert stats[0].startswith("group,mean,std")
    assert len(stats) == 3  # header + 2 groups


def test_shard_train_that_fails_writes_nothing(workspace, tmp_path, capsys):
    # 40 documents and 20 train queries leave a group too few labeled queries
    # for two-tower training
    shards_dir = tmp_path / "shards"
    assert run_cli("shard-train", "--corpus-dir", workspace["corpus"],
                   "--queries", workspace["data"] / "train_queries.tsv",
                   "--qrels", workspace["data"] / "train_qrels.tsv", "--strategy", "overdense",
                   "--out-dir", shards_dir, "--config", workspace["cfg"]) == 1
    assert "two-tower training needs at least 2 labeled queries" in capsys.readouterr().err
    assert not shards_dir.exists()  # the run made it, and removes it empty


@pytest.mark.parametrize("strategy, error", [
    ("overdense", "group 0: two-tower training needs at least 2 labeled queries"),
    ("vanilla", "group 1: finetune: 3 epochs requested but no pairs were provided"),
])
def test_shard_train_error_names_the_failing_group(workspace, tmp_path, capsys, strategy, error):
    # 3 labeled queries over 4 groups leave some groups without enough of them
    qrels = tmp_path / "qrels.tsv"
    lines = (workspace["data"] / "train_qrels.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    qrels.write_text("".join(lines[:3]), encoding="utf-8")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TINY_CFG.replace("n_groups = 2", "n_groups = 4"))
    shards_dir = tmp_path / "shards"
    assert run_cli("shard-train", "--corpus-dir", workspace["corpus"],
                   "--queries", workspace["data"] / "train_queries.tsv", "--qrels", qrels,
                   "--strategy", strategy, "--out-dir", shards_dir, "--config", cfg) == 1
    assert f"error: {error}\n" in capsys.readouterr().err
    assert not shards_dir.exists()


def test_gradcheck_command(capsys):
    assert run_cli("gradcheck", "--coords", 2) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out


@pytest.mark.parametrize("coords", [0, -1])
def test_gradcheck_rejects_coords_below_one_naming_the_flag(tmp_path, capsys, coords):
    out = tmp_path / "gc"
    assert run_cli("gradcheck", "--coords", coords, "--out-dir", out) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: gradcheck --coords must be >= 1")
    assert "max relative error" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("config, layer1_rows", [(None, True), ("n_layers = 1\n", False)],
                         ids=["default", "one-layer-config"])
def test_gradcheck_takes_the_encoder_from_the_config(tmp_path, capsys, config, layer1_rows):
    argv = ["gradcheck", "--coords", 1]
    if config:
        (tmp_path / "exp.cfg").write_text(config)
        argv += ["--config", tmp_path / "exp.cfg"]
    assert run_cli(*argv) == 0
    rows = capsys.readouterr().out.splitlines()
    assert any(r.startswith("layer0.") for r in rows)
    assert any(r.startswith("layer1.") for r in rows) == layer1_rows


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


def test_runtime_error_exits_1(tmp_path):
    assert run_cli("ingest", "--docs", tmp_path / "missing.jsonl",
                   "--out-dir", tmp_path) == 1


@pytest.mark.parametrize("argv, flag", [
    (("--heldout-queries", -3), "--heldout-queries"),
    (("--train-queries", -1), "--train-queries"),
    (("--docs", 1), "--docs"),
], ids=["heldout-queries", "train-queries", "docs"])
def test_rejected_synth_names_the_flag_and_leaves_no_out_dir(tmp_path, capsys, argv, flag):
    out = tmp_path / "new" / "neg"
    assert run_cli("synth", "--docs", 20, *argv, "--out-dir", out) == 1
    assert capsys.readouterr().err.startswith(f"error: synth {flag} must be >= ")
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("argv, counts", [
    (("--train-queries", 150, "--heldout-queries", 100), "--train-queries 150 + --heldout-queries 100"),
    (("--train-queries", 170), "--train-queries 170 + --heldout-queries 40"),  # 200 // 5
], ids=["both_given", "default_heldout"])
def test_synth_queries_exceeding_docs_names_the_flags(tmp_path, capsys, argv, counts):
    out = tmp_path / "new"
    assert run_cli("synth", "--docs", 200, *argv, "--out-dir", out) == 1
    assert capsys.readouterr().err.startswith(f"error: synth {counts} exceed --docs 200 ")
    assert not out.exists()


def test_synth_without_training_queries(tmp_path):
    assert run_cli("synth", "--docs", 10, "--train-queries", 0, "--heldout-queries", 2,
                   "--out-dir", tmp_path) == 0
    assert (tmp_path / "train_queries.tsv").read_text() == ""
    assert len((tmp_path / "heldout_qrels.tsv").read_text().splitlines()) == 2


def test_run_that_writes_nothing_leaves_no_out_dir(tmp_path, capsys):
    # gradcheck writes no file, so the directories it made are empty when it ends
    assert run_cli("gradcheck", "--coords", 1, "--out-dir", tmp_path / "made" / "sub") == 0
    assert "max relative error" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_failed_run_keeps_an_out_dir_it_did_not_make(tmp_path):
    out = tmp_path / "existing"
    out.mkdir()
    assert run_cli("synth", "--docs", 20, "--train-queries", 15, "--heldout-queries", 10,
                   "--out-dir", out) == 1
    assert out.is_dir()


def test_retrieve_model_method_requires_model(workspace, tmp_path):
    assert run_cli("retrieve", "--corpus-dir", workspace["corpus"],
                   "--queries", workspace["data"] / "train_queries.tsv",
                   "--out-dir", tmp_path, "--config", workspace["cfg"]) == 1


def test_retrieve_bm25_method_rejects_model_naming_both_flags(workspace, tmp_path, capsys):
    out = tmp_path / "bm25"
    assert run_cli("retrieve", "--corpus-dir", workspace["corpus"],
                   "--queries", workspace["data"] / "train_queries.tsv", "--method", "bm25",
                   "--model", tmp_path / "missing.ckpt", "--out-dir", out,
                   "--config", workspace["cfg"]) == 1
    assert capsys.readouterr().err == "error: retrieve --method bm25 takes no --model\n"
    assert not out.exists()


def test_subset_size_exceeding_corpus_exits_1(workspace, tmp_path):
    assert run_cli("subset", "--corpus-dir", workspace["corpus"],
                   "--qrels", workspace["data"] / "train_qrels.tsv",
                   "--strategy", "random", "--size", 10_000,
                   "--out-dir", tmp_path, "--config", workspace["cfg"]) == 1


def test_eval_error_on_unknown_run_qid(workspace, tmp_path):
    bad_run = tmp_path / "bad.run"
    bad_run.write_text("zz9 Q0 doc00000 1 1.000000 tag\n")
    assert run_cli("eval", "--run", bad_run,
                   "--qrels", workspace["data"] / "train_qrels.tsv",
                   "--out-dir", tmp_path, "--config", workspace["cfg"]) == 1


@pytest.mark.parametrize("flag", ["--queries", "--run", "--qrels", "--config"])
def test_directory_given_as_input_file_is_an_error(workspace, tmp_path, capsys, flag):
    folder = tmp_path / "folder"
    folder.mkdir()
    run = tmp_path / "a.run"
    run.write_text("tq00001 Q0 doc00000 1 1.000000 t\n")
    inputs = {"--queries": workspace["data"] / "train_queries.tsv", "--run": run,
              "--qrels": workspace["data"] / "train_qrels.tsv", "--config": workspace["cfg"]}
    inputs[flag] = folder
    argv = ["eval", "--run", inputs["--run"], "--qrels", inputs["--qrels"]] if flag in ("--run", "--qrels") \
        else ["retrieve", "--corpus-dir", workspace["corpus"], "--method", "bm25", "--queries", inputs["--queries"]]
    assert run_cli(*argv, "--out-dir", tmp_path / "out", "--config", inputs["--config"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"Is a directory: '{folder}'" in err
    assert "Traceback" not in err


def _untrained_shards(workspace, shards_dir, extra_vocab=(0, 0)):
    """A 2-group manifest and untrained group checkpoints; group g's encoder
    has extra_vocab[g] tokens more than the corpus vocabulary."""
    corp = load_corpus(workspace["corpus"])
    plan = partition(len(corp), 2, seed=0)
    shards_dir.mkdir()
    write_manifest(shards_dir / "shards.tsv", plan, corp)
    for gid, members in enumerate(plan.groups):
        cfg = EncoderConfig(vocab_size=len(corp.vocab) + extra_vocab[gid], d_model=16,
                            n_layers=1, n_heads=2, d_ff=32, max_len=32)
        w_doc = np.zeros((cfg.d_model, len(members)), dtype=np.float32)
        (shards_dir / f"group{gid:02d}").mkdir()
        checkpoint.save_model(shards_dir / f"group{gid:02d}" / "model.ckpt", cfg,
                              Encoder.init(cfg, gid).params, w_doc)


def _shard_merge(workspace, shards_dir, out_dir) -> int:
    return run_cli("shard-merge", "--shards-dir", shards_dir,
                   "--corpus-dir", workspace["corpus"],
                   "--queries", workspace["data"] / "train_queries.tsv",
                   "--out-dir", out_dir, "--config", workspace["cfg"])


def test_shard_merge_rejects_model_with_other_vocabulary(workspace, tmp_path, capsys):
    _untrained_shards(workspace, tmp_path / "shards", extra_vocab=(0, 1))
    assert _shard_merge(workspace, tmp_path / "shards", tmp_path / "merged") == 1
    assert "group 1 model vocabulary does not match the corpus" in capsys.readouterr().err


def test_shard_merge_rejects_missing_group_model(workspace, tmp_path, capsys):
    shards_dir, merged = tmp_path / "shards", tmp_path / "merged"
    _untrained_shards(workspace, shards_dir)
    assert _shard_merge(workspace, shards_dir, merged) == 0
    shutil.rmtree(merged)
    missing = shards_dir / "group01" / "model.ckpt"
    missing.unlink()
    assert _shard_merge(workspace, shards_dir, merged) == 1
    assert f"missing model for group 1: {missing}" in capsys.readouterr().err
    assert not list(merged.glob("*.run"))


def test_diag_scores_labels_groups_by_file_name(workspace, tmp_path, capsys):
    # 101 groups: group100.run sorts between group10.run and group11.run as text
    runs_dir = tmp_path / "runs"
    runs_dir.mkdir()
    for gid in range(101):
        (runs_dir / f"group{gid:02d}.run").write_text(f"q1 Q0 doc00000 1 {gid}.000000 t\n")
    assert run_cli("diag-scores", "--runs-dir", runs_dir, "--out-dir", tmp_path / "diag",
                   "--config", workspace["cfg"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("group ")]
    assert rows == [f"group {gid}: mean {gid}.0000 std 0.0000 min {gid}.0000 max {gid}.0000"
                    for gid in range(101)]
    stats = (tmp_path / "diag" / "score_stats.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in stats] == list(range(101))


@pytest.mark.parametrize("names, error", [
    ([], "no run file for group 0 among the 0 group*.run files under"),
    (["group00.run", "group02.run"], "no run file for group 1 among the 2 group*.run files under"),
    (["group00.run", "group1.run", "group01.run"], "{dir}/group01.run and {dir}/group1.run both name group 1"),
    (["group0.run", "group00.run", "group1.run"], "{dir}/group0.run and {dir}/group00.run both name group 0"),
    (["group00.run", "group1a.run"], "group1a.run: expected a run file named group<id>.run"),
], ids=["none", "gap", "same_id_twice", "group_0_twice", "no_id"])
def test_diag_scores_rejects_group_files_that_are_not_0_to_n(workspace, tmp_path, capsys,
                                                            names, error):
    for name in names:
        (tmp_path / name).write_text("q1 Q0 doc00000 1 1.000000 t\n")
    assert run_cli("diag-scores", "--runs-dir", tmp_path, "--out-dir", tmp_path / "diag",
                   "--config", workspace["cfg"]) == 1
    assert error.format(dir=tmp_path) in capsys.readouterr().err


_BAD_DOCS_LINE = {
    "no_token_ids": ('{"docid":"x"}', "expected a record with 'docid' and a 'token_ids' list"),
    "no_docid": ('{"token_ids":[3]}', "expected a record with 'docid' and a 'token_ids' list"),
    "not_a_record": ("[3, 4]", "expected a record with 'docid' and a 'token_ids' list"),
    "not_json": ("docid x", "invalid JSON"),
}


@pytest.mark.parametrize("case", sorted(_BAD_DOCS_LINE))
def test_retrieve_rejects_bad_corpus_line(workspace, tmp_path, capsys, case):
    line, message = _BAD_DOCS_LINE[case]
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(workspace["corpus"], corpus_dir)
    docs = corpus_dir / "docs.jsonl"
    lines = docs.read_text().splitlines(keepends=True)
    lines[2] = line + "\n"
    docs.write_text("".join(lines))
    assert run_cli("retrieve", "--corpus-dir", corpus_dir,
                   "--queries", workspace["data"] / "train_queries.tsv", "--method", "bm25",
                   "--out-dir", tmp_path / "run", "--config", workspace["cfg"]) == 1
    assert f"error: {docs} line 3: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run" / "run.txt").exists()


@pytest.mark.parametrize("token_ids, message", [
    ("[3.0, 4]", " (docid 'a'): token ids must be integers"),
    ("[3, 4, 1e0]", " (docid 'a'): token ids must be integers"),
    ("[3, true, 4]", " (docid 'a'): token ids must be integers"),
    ("[false]", " (docid 'a'): token ids must be integers"),
    ('[3, "4"]', " (docid 'a'): token ids must be integers"),
    ("[3, [4]]", " (docid 'a'): token ids must be integers"),
], ids=["float", "exponent", "true", "false", "string", "list"])
def test_pairs_rejects_token_id_that_is_not_an_integer(workspace, tmp_path, capsys,
                                                        token_ids, message):
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(workspace["corpus"], corpus_dir)
    docs = corpus_dir / "docs.jsonl"
    lines = docs.read_text().splitlines(keepends=True)
    lines[2] = f'{{"docid":"a","token_ids":{token_ids}}}\n'
    docs.write_text("".join(lines))
    assert run_cli("pairs", "--corpus-dir", corpus_dir, "--out-dir", tmp_path / "pairs",
                   "--config", workspace["cfg"]) == 1
    assert f"error: {docs} line 3{message}" in capsys.readouterr().err
    assert not (tmp_path / "pairs" / "pairs.tsv").exists()


def _train_vanilla_cli(workspace, out, cfg, *flags) -> None:
    assert run_cli("train-vanilla", "--corpus-dir", workspace["corpus"],
                   "--queries", workspace["data"] / "train_queries.tsv",
                   "--qrels", workspace["data"] / "train_qrels.tsv",
                   *flags, "--out-dir", out, "--config", cfg) == 0


@pytest.mark.parametrize("flag,key", [("--skip-pretrain", "pretrain_epochs"),
                                      ("--skip-finetune", "finetune_epochs")])
def test_skip_flag_is_the_zero_epoch_config(workspace, tmp_path, flag, key):
    zero_cfg = tmp_path / "zero.cfg"
    zero_cfg.write_text(re.sub(rf"^{key} = \d+$", f"{key} = 0", TINY_CFG, flags=re.M))
    # with pre-training off, neither way needs --pairs
    pairs = [] if key == "pretrain_epochs" else ["--pairs", workspace["pairs"]]
    _train_vanilla_cli(workspace, tmp_path / "flag", workspace["cfg"], flag, *pairs)
    _train_vanilla_cli(workspace, tmp_path / "zero", zero_cfg, *pairs)
    _train_vanilla_cli(workspace, tmp_path / "full", workspace["cfg"], "--pairs", workspace["pairs"])
    model = {d: (tmp_path / d / "model.ckpt").read_bytes() for d in ("flag", "zero", "full")}
    meta = {d: json.loads((tmp_path / d / "model.ckpt.meta.json").read_text())["config_hash"]
            for d in ("flag", "zero", "full")}
    assert model["flag"] == model["zero"] != model["full"]
    assert meta["flag"] == meta["zero"] != meta["full"]


@pytest.fixture(scope="module")
def workspace80(tmp_path_factory):
    """Enough labeled queries per shard for two-tower training."""
    ws = tmp_path_factory.mktemp("ws80")
    cfg = ws / "exp.cfg"
    cfg.write_text(TINY_CFG)
    data = ws / "data"
    assert run_cli("synth", "--docs", 80, "--train-queries", 60, "--heldout-queries", 8,
                   "--out-dir", data, "--config", cfg) == 0
    assert run_cli("ingest", "--docs", data / "docs.jsonl", "--out-dir", ws / "corpus",
                   "--config", cfg) == 0
    return {"data": data, "corpus": ws / "corpus"}


def test_shard_pipeline_overdense(workspace80, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TINY_CFG)
    queries = workspace80["data"] / "train_queries.tsv"
    shards_dir = tmp_path / "shards"
    assert run_cli("shard-train", "--corpus-dir", workspace80["corpus"], "--queries", queries,
                   "--qrels", workspace80["data"] / "train_qrels.tsv", "--strategy", "overdense",
                   "--out-dir", shards_dir, "--config", cfg) == 0
    corp = load_corpus(workspace80["corpus"])
    sizes = []
    for gid in range(2):
        gdir = shards_dir / f"group{gid:02d}"
        _, _, w_doc = checkpoint.load_model(gdir / "model.ckpt")
        sizes.append(w_doc.shape[1])
        stages = {line.split("\t")[0] for line in (gdir / "loss_log.txt").read_text().splitlines()}
        assert stages == {"two_tower", "finetune"}
    assert sum(sizes) == len(corp)

    merge_dir = tmp_path / "merged"
    assert run_cli("shard-merge", "--shards-dir", shards_dir, "--corpus-dir", workspace80["corpus"],
                   "--queries", queries, "--out-dir", merge_dir, "--config", cfg) == 0
    merged = (merge_dir / "merged.run").read_text().splitlines()
    n_queries = len(queries.read_text(encoding="utf-8").splitlines())
    assert len({line.split()[0] for line in merged}) == n_queries
    assert len(merged) == n_queries * 10  # k = 10


_BAD_CHECKPOINT = {
    "query_tower": "header has no docid matrix; not a retriever checkpoint",
    "corpus_size": "model docid matrix has 41 columns but there are 40 documents to rank",
    "vocabulary": "model vocabulary does not match the corpus",
}


def _save_checkpoint_for_other_data(path, corpus_dir, case) -> None:
    """A checkpoint that `case` (a _BAD_CHECKPOINT key) makes unfit for the
    corpus; a query_tower is a retriever whose header claims no docid matrix."""
    corp = load_corpus(corpus_dir)
    cfg = EncoderConfig(vocab_size=len(corp.vocab) + (case == "vocabulary"), d_model=16,
                        n_layers=1, n_heads=2, d_ff=32, max_len=32)
    w_doc = np.zeros((cfg.d_model, len(corp) + (case == "corpus_size")), dtype=np.float32)
    checkpoint.save_model(path, cfg, Encoder.init(cfg, 0).params, w_doc)
    if case == "query_tower":
        rewrite_header(path, n_docs=0)


@pytest.mark.parametrize("case", sorted(_BAD_CHECKPOINT))
def test_retrieve_rejects_checkpoint_for_other_data(workspace, tmp_path, capsys, case):
    path = tmp_path / ("query_tower.ckpt" if case == "query_tower" else "model.ckpt")
    _save_checkpoint_for_other_data(path, workspace["corpus"], case)
    assert run_cli("retrieve", "--corpus-dir", workspace["corpus"],
                   "--queries", workspace["data"] / "train_queries.tsv", "--model", path,
                   "--out-dir", tmp_path / "run", "--config", workspace["cfg"]) == 1
    err = capsys.readouterr().err
    assert _BAD_CHECKPOINT[case] in err
    if case == "query_tower":
        assert err.startswith(f"error: {path}: {_BAD_CHECKPOINT[case]}\n")
    assert not (tmp_path / "run" / "run.txt").exists()


def test_retrieve_rejects_checkpoint_with_bad_header(workspace, tmp_path, capsys):
    path = tmp_path / "model.ckpt"
    checkpoint._write(path, (16, 1, 0, 10, 8, 1), [np.zeros(100, dtype=np.float32)])
    assert run_cli("retrieve", "--corpus-dir", workspace["corpus"],
                   "--queries", workspace["data"] / "train_queries.tsv", "--model", path,
                   "--out-dir", tmp_path / "run", "--config", workspace["cfg"]) == 1
    assert f"error: {path}: bad header: n_heads must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "run" / "run.txt").exists()


@pytest.mark.parametrize("case", ["corpus_size", "vocabulary"])
def test_train_overdense_rejects_dense_model_for_other_data(workspace, tmp_path, capsys, case):
    dense_dir = tmp_path / "dense"
    dense_dir.mkdir()
    _save_checkpoint_for_other_data(dense_dir / "model.ckpt", workspace["corpus"], case)
    assert run_cli("train-overdense", "--corpus-dir", workspace["corpus"],
                   "--queries", workspace["data"] / "train_queries.tsv",
                   "--qrels", workspace["data"] / "train_qrels.tsv", "--dense-dir", dense_dir,
                   "--out-dir", tmp_path / "od", "--config", workspace["cfg"]) == 1
    assert "dense " + _BAD_CHECKPOINT[case] in capsys.readouterr().err
    assert not (tmp_path / "od" / "model.ckpt").exists()


# every subcommand's required flags, then its optional ones, in parser order;
# each also takes -h/--help before them and COMMON after them
_CQQ = ("--corpus-dir", "--queries", "--qrels")
COMMON = ("--config", "--seed", "--out-dir")
FLAGS = {
    "synth": ((), ("--docs", "--train-queries", "--heldout-queries")),
    "ingest": (("--docs",), ()),
    "subset": (("--corpus-dir", "--qrels", "--strategy", "--size"), ()),
    "pairs": (("--corpus-dir",), ()),
    "train-dense": (_CQQ, ()),
    "train-vanilla": (_CQQ, ("--pairs", "--skip-pretrain", "--skip-finetune")),
    "train-overdense": ((*_CQQ, "--dense-dir"), ("--skip-finetune",)),
    "retrieve": (("--corpus-dir", "--queries"), ("--model", "--method")),
    "eval": (("--run", "--qrels"), ()),
    "shard-train": (_CQQ, ("--strategy",)),
    "shard-merge": (("--shards-dir", "--corpus-dir", "--queries"), ()),
    "diag-scores": (("--runs-dir",), ()),
    "gradcheck": ((), ("--coords",)),
}
_VALUE = {"--strategy": "random", "--size": "5"}  # every other flag takes a path


def _required_argv(command, leave_out=None) -> list[str]:
    argv = [command]
    for flag in FLAGS[command][0]:
        if flag != leave_out:
            argv += [flag, _VALUE.get(flag, "x")]
    return argv


def test_parser_table_lists_every_subcommand():
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(FLAGS)
    for command, (required, optional) in FLAGS.items():
        actions = sub.choices[command]._actions
        assert [flag for a in actions for flag in a.option_strings] == [
            "-h", "--help", *required, *optional, *COMMON]
        assert [a.option_strings[0] for a in actions if a.required] == list(required)
        args = ap.parse_args(_required_argv(command))
        assert args.command == command
        assert (args.config, args.seed, args.out_dir) == (None, None, ".")


@pytest.mark.parametrize("command,flag", [(c, f) for c, (required, _) in FLAGS.items() for f in required])
def test_missing_required_flag_exits_2(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*_required_argv(command, leave_out=flag))
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--help")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: paramdex {command}")


@pytest.mark.skipif(shutil.which("bash") is None, reason="ci/console.sh is a bash script")
def test_ci_console_script(tmp_path):
    # the commands CI runs through the installed entry point, here through python -m
    script = Path(__file__).resolve().parents[1] / "ci" / "console.sh"
    env = {**os.environ, "PARAMDEX": f"{sys.executable} -m paramdex.cli",
           "PYTHONPATH": str(Path(paramdex.__file__).resolve().parents[1])}
    proc = subprocess.run(["bash", str(script)], cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "max relative error" in proc.stdout and "gradcheck --coords 0 passed" not in proc.stdout
    assert "unknown config key 'beta1'" in proc.stderr
    assert (tmp_path / "vanilla-eval" / "report.csv").stat().st_size > 0
    assert (tmp_path / "merged" / "merged.run").stat().st_size > 0
    assert (tmp_path / "overdense-run" / "run.txt").stat().st_size > 0
    assert (tmp_path / "diag" / "score_stats.csv").stat().st_size > 0
    assert {p.name for p in (tmp_path / "dense").iterdir()} == {
        "model.ckpt", "model.ckpt.meta.json", "loss_log.txt"}
    # every checkpoint is a retriever: one docid column per document of its
    # corpus, or of its group for a shard
    corp = load_corpus(tmp_path / "corpus")
    groups = read_manifest(tmp_path / "shards" / "shards.tsv", corp).groups
    n_docs = {f"{name}/model.ckpt": len(corp) for name in ("vanilla", "dense", "overdense")}
    n_docs.update({f"shards/group{gid:02d}/model.ckpt": len(m) for gid, m in enumerate(groups)})
    written = {p.relative_to(tmp_path).as_posix(): p for p in tmp_path.rglob("*.ckpt")}
    assert sorted(written) == sorted(n_docs)
    for name, path in written.items():
        _, _, w_doc = checkpoint.load_model(path)
        assert w_doc.shape[1] == n_docs[name], name


def test_pipeline_sums_script_lists_the_files_criterion_8_compares(tmp_path):
    # the script runs in its own process; every path and digest must match
    script = Path(__file__).resolve().parents[1] / "ci" / "pipeline_sums.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    listed = [line.split("  ", 1)[::-1] for line in proc.stdout.splitlines()]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(ACCEPT_CFG)
    compared = _run_pipeline(tmp_path / "pipeline", cfg)
    assert [path for path, _ in listed] == sorted(compared)
    assert dict(listed) == {path: hashlib.sha256(data).hexdigest() for path, data in compared.items()}
