#!/usr/bin/env bash
# One short traced benchmark pass per workload, from the repository root:
#
#   bash ci/bench_smoke.sh [OUT_DIR]    # OUT_DIR defaults to a new mktemp -d directory
#
# Each pass must be correct, and every function the tracer shims must still
# exist under its name. dense runs the baselines.adamw_step shim and the
# zero-shot overdense oracle. retrieve's set-up runs the manifest, corpus,
# query and qrels readers on a 10k-document corpus, and its first pass the
# shard merge oracles. perfbench/run.py's output for each workload goes to
# OUT_DIR/smoke-<workload>.jsonl, and its result line is printed. On a failure
# the script prints the report's errors and missing spans and exits 1.
set -eu
out_dir="${1:-$(mktemp -d)}"
mkdir -p "$out_dir"

for workload in pretrain dense retrieve; do
  out="$out_dir/smoke-$workload.jsonl"
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 1 > "$out"
  mapfile -t last < <(tail -n 2 "$out")  # the report line, then the result line
  report="${last[0]}" result="${last[1]}"
  echo "$workload: $result"
  if [[ $result != '{"correct": true,'* || $report != *'"missing_spans": []'* ]]; then
    echo "benchmark smoke failed on $workload"
    python3 -c 'import json, sys; r = json.load(sys.stdin); print(json.dumps({k: r.get(k) for k in ("errors", "missing_spans")}, indent=1))' <<< "$report"
    exit 1
  fi
done
