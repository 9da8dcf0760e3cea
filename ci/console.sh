#!/usr/bin/env bash
# Runs the paramdex console commands that CI checks, in the current directory.
#
#   PARAMDEX=paramdex bash ci/console.sh                  # the installed entry point
#   PARAMDEX="python -m paramdex.cli" bash ci/console.sh  # the source tree
#
# $PARAMDEX is split into words, so it may be a command with arguments. The
# commands: gradients (a check of no coordinate must fail, and so must a
# config naming the removed key beta1 or run_tag, with exit status 1, and the
# removed flag --seed, with argparse's exit status 2), then a corpus
# round trip that loads the saved docs.jsonl through load_corpus's bulk
# reader, a subset that keeps its part's qrels, a synth corpus without
# training queries, the paper's pipeline (pairs, train-vanilla, retrieve with
# the model, eval) and the two-tower path (train-dense, train-overdense from
# its model and retrieve with the result, overdense shards, their merge and
# the per-group score report) on a tiny encoder.
set -euo pipefail
: "${PARAMDEX:?set PARAMDEX to the paramdex command}"
read -r -a paramdex <<< "$PARAMDEX"

"${paramdex[@]}" gradcheck --coords 2
if "${paramdex[@]}" gradcheck --coords 0; then echo "gradcheck --coords 0 passed"; exit 1; fi
printf 'beta1 = 0.9\n' > removed-key.cfg
status=0; "${paramdex[@]}" gradcheck --coords 2 --config removed-key.cfg || status=$?
if [[ $status != 1 ]]; then echo "a config naming beta1 exited $status, not 1"; exit 1; fi
printf 'run_tag = paramdex\n' > removed-run-tag.cfg
status=0; "${paramdex[@]}" gradcheck --coords 2 --config removed-run-tag.cfg || status=$?
if [[ $status != 1 ]]; then echo "a config naming run_tag exited $status, not 1"; exit 1; fi
status=0; "${paramdex[@]}" gradcheck --seed 1 || status=$?
if [[ $status != 2 ]]; then echo "gradcheck --seed 1 exited $status, not 2"; exit 1; fi
"${paramdex[@]}" synth --docs 300 --out-dir synth
"${paramdex[@]}" ingest --docs synth/docs.jsonl --out-dir corpus
"${paramdex[@]}" retrieve --method bm25 --corpus-dir corpus --queries synth/heldout_queries.tsv --out-dir bm25
"${paramdex[@]}" eval --run bm25/run.txt --qrels synth/heldout_qrels.tsv --out-dir eval
"${paramdex[@]}" subset --strategy top_click --size 100 --corpus-dir corpus --qrels synth/train_qrels.tsv --out-dir subset
"${paramdex[@]}" synth --docs 50 --train-queries 0 --out-dir synth-no-train
printf 'd_model = 16\nn_layers = 1\npretrain_epochs = 1\nfinetune_epochs = 2\n' > tiny.cfg
"${paramdex[@]}" pairs --corpus-dir corpus --out-dir pairs --config tiny.cfg
"${paramdex[@]}" train-vanilla --corpus-dir corpus --queries synth/train_queries.tsv --qrels synth/train_qrels.tsv --pairs pairs/pairs.tsv --out-dir vanilla --config tiny.cfg
"${paramdex[@]}" retrieve --corpus-dir corpus --queries synth/heldout_queries.tsv --model vanilla/model.ckpt --out-dir vanilla-run --config tiny.cfg
"${paramdex[@]}" eval --run vanilla-run/run.txt --qrels synth/heldout_qrels.tsv --out-dir vanilla-eval
"${paramdex[@]}" train-dense --corpus-dir corpus --queries synth/train_queries.tsv --qrels synth/train_qrels.tsv --out-dir dense --config tiny.cfg
"${paramdex[@]}" train-overdense --corpus-dir corpus --queries synth/train_queries.tsv --qrels synth/train_qrels.tsv --dense-dir dense --out-dir overdense --config tiny.cfg
"${paramdex[@]}" retrieve --corpus-dir corpus --queries synth/heldout_queries.tsv --model overdense/model.ckpt --out-dir overdense-run --config tiny.cfg
"${paramdex[@]}" shard-train --strategy overdense --corpus-dir corpus --queries synth/train_queries.tsv --qrels synth/train_qrels.tsv --out-dir shards --config tiny.cfg
"${paramdex[@]}" shard-merge --shards-dir shards --corpus-dir corpus --queries synth/heldout_queries.tsv --out-dir merged --config tiny.cfg
"${paramdex[@]}" diag-scores --runs-dir merged --out-dir diag --config tiny.cfg
