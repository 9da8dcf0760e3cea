"""One benchmark run: fixture, repeated set-up, measured passes, metrics.

Untraced runs install nothing and give the end-to-end metrics. A traced
run alternates untraced and traced passes: the traced ones give the
per-module metrics, the untraced ones the stage throughputs, and the gap
between the two pass times is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from . import fixtures
from .tracing import Tracer, children_durations, op_latencies, self_times
from .workloads import SIZES, WORKLOADS, Ops

WORK_DIR = ".perfbench_work"
# set-up runs before every pass, so its median sees the same machine as the passes
SETUP_MIN_REPS = 5
SETUP_REPS_PER_PASS = 3
SETUP_BURST_S = 0.05

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "pass_s": ("s", "lower", 0.24),
    "ranking_mrr": ("ratio", "higher", 0.15),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# stage -> (report name, unit) of the per-stage throughputs
STAGES = {
    "pairs": ("pairs_per_s", "pairs/s"),
    "pretrain": ("pretrain_pairs_per_s", "pairs/s"),
    "two_tower": ("two_tower_pairs_per_s", "pairs/s"),
    "encode": ("encode_docs_per_s", "docs/s"),
    "finetune": ("finetune_pairs_per_s", "pairs/s"),
    "model": ("model_qps", "queries/s"),
    "bm25": ("bm25_qps", "queries/s"),
    "shard": ("shard_qps", "queries/s"),
}

# self seconds per pass of each span name
SELF_TIMES = {
    "pairs.generate_s": ["pairs.generate_pretrain_pairs"],
    "training.mixed_task_epoch_s": ["training.mixed_task_epoch"],
    "nn.forward_batch.self_s": ["nn.forward_batch"],
    "nn.backward_batch.self_s": ["nn.backward_batch"],
    "nn.forward_backward.self_s": ["nn.forward_backward"],
    "nn.adamw_step.self_s": ["nn.adamw_step"],
    "retriever.score_all.self_s": ["retriever.score_all"],
    "retriever.top_k.self_s": ["retriever.top_k"],
    "retriever.retrieve.self_s": ["retriever.retrieve"],
    "retriever.train_stage.self_s": ["retriever.train_vanilla", "retriever.train_overdense"],
    "baselines.bm25_retrieve.self_s": ["baselines.bm25_retrieve"],
    "baselines.train_two_tower.self_s": ["baselines.train_two_tower"],
    "baselines.dense_encode_corpus.self_s": ["baselines.dense_encode_corpus"],
    "distributed.shard_retrieve.self_s": ["distributed.shard_retrieve"],
    "distributed.merge_runs.self_s": ["distributed.merge_runs"],
    "runfiles.write_s": ["runfiles.write_run"],
}
CALLS = {"nn.forward_batch.calls": "nn.forward_batch", "nn.adamw_step.calls": "nn.adamw_step"}
PASS_COUNTS = [
    "pairs.count.passage", "pairs.count.terms", "pairs.count.ngram", "pairs.term_draw_work",
    "training.epochs_run", "retriever.scored_cells", "baselines.postings_scanned",
    "distributed.merge_candidates", "runfiles.bytes_written",
]
SETUP_PARTS = ["corpus.load_s", "checkpoint.load_s", "checkpoint.bytes_read", "baselines.index_build_s"]
LATENCIES = ["retriever.query", "baselines.bm25", "distributed.shard"]
QUALITY = ["heldout_mrr", "heldout_recall_1", "heldout_recall_20"]


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-module metric of a traced run: name -> (unit, better)."""
    m: dict[str, tuple[str, str]] = {}
    for name in SETUP_PARTS:
        m[name] = ("B", "lower") if name.endswith("bytes_read") else ("s", "lower")
    for name in SELF_TIMES:
        m[name] = ("s", "lower")
    for name in CALLS:
        m[name] = ("count", "lower")
    for name in PASS_COUNTS:
        m[name] = ("B", "lower") if name.endswith("bytes_written") else ("count", "lower")
    m["nn.pad_fill"] = ("ratio", "higher")
    m["nn.attn_fill"] = ("ratio", "higher")
    for name in LATENCIES:
        m[f"{name}_p50_ms"] = ("ms", "lower")
        m[f"{name}_tail_ms"] = ("ms", "lower")
    for report_name, unit in STAGES.values():
        m[f"stage.{report_name}"] = (unit, "higher")
    for name in QUALITY:
        m[f"quality.{name}"] = ("ratio", "higher")
    m["trace.overhead_frac"] = ("ratio", "lower")
    m["trace.missing_spans"] = ("count", "lower")
    m["trace.spans_per_pass"] = ("count", "lower")
    return m


def shims():
    """(owner, attribute, span name, hook) for every name the traced passes replace."""
    from paramdex import baselines, nn, retriever

    return [
        (nn.Encoder, "forward_batch", "nn.forward_batch", _count_padding),
        (nn.Encoder, "backward_batch", "nn.backward_batch", None),
        (retriever, "forward_backward", "nn.forward_backward", None),
        (retriever, "adamw_step", "nn.adamw_step", None),
        (baselines, "adamw_step", "nn.adamw_step", None),
        (retriever, "mixed_task_epoch", "training.mixed_task_epoch", None),
        (retriever, "score_all", "retriever.score_all", None),
        (retriever, "top_k", "retriever.top_k", None),
        (retriever.DocidRetriever, "retrieve", "retriever.retrieve", None),
    ]


def _count_padding(counts: Counter, args, kwargs) -> None:
    """Token slots and attention cells of one forward_batch call: real and padded."""
    encoder = args[0]
    seqs = args[1] if len(args) > 1 else kwargs["seqs"]
    cap = encoder.cfg.max_len - 1
    lens = [1 + min(len(s), cap) for s in seqs]  # + the CLS token
    n = max(lens, default=1)
    counts["real_slots"] += sum(lens)
    counts["padded_slots"] += len(lens) * n
    counts["real_cells"] += sum(x * x for x in lens)
    counts["padded_cells"] += len(lens) * n * n


def tail_percentile(n: int) -> float | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return None


def _percentile(xs: list[float], p: float) -> float:
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(round(p / 100.0 * (len(xs) - 1))))]


def _latency_summary(xs: list[float]) -> dict:
    if not xs:
        return {"n": 0}
    out = {"n": len(xs), "p50_ms": statistics.median(xs) * 1e3}
    tail = tail_percentile(len(xs))
    if tail is not None:
        out["tail_percentile"] = tail
        out["tail_ms"] = _percentile(xs, tail) * 1e3
    return out


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, root: Path,
                  sizes: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (the result line, the full report)."""
    sizes = sizes or SIZES[workload]
    work = root / WORK_DIR
    fixture, built = fixtures.ensure(workload, seed, sizes, work / "fixtures")
    scratch = work / "scratch" / f"{workload}-{seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        result, report = _measure(WORKLOADS[workload](fixture, seed, sizes, scratch), seconds, trace)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  sizes=sizes, fixture_built=built)
    return result, report


def _measure(wl, seconds: float, trace: bool) -> tuple[dict, dict]:
    tr = Tracer()
    setup_times: list[float] = []
    parts: dict[str, list[float]] = defaultdict(list)

    def set_up() -> None:
        """Set up a few times, until SETUP_BURST_S has gone by; the last state is used."""
        spent = 0.0
        for _ in range(SETUP_REPS_PER_PASS):
            t0 = time.perf_counter()
            wl.setup(tr)
            setup_times.append(time.perf_counter() - t0)
            spent += setup_times[-1]
            for k, v in wl.setup_parts.items():
                parts[k].append(v)
            if spent >= SETUP_BURST_S:
                break

    ops = Ops()
    untraced, traced = [], []  # PassResult, and (PassResult, span range, count deltas)
    reference = None
    start = time.perf_counter()
    i = 0
    while len(untraced) + len(traced) < (2 if trace else 1) or time.perf_counter() - start < seconds:
        use_trace = trace and reference is not None and i % 2 == 1
        set_up()
        lo, before = len(tr.spans), Counter(tr.counts)
        if use_trace:
            tr.install(shims())
        ops.attempted += 1
        try:
            p = wl.run_pass(tr, ops, first=reference is None)
        except Exception:  # a broken program fails the pass, and the run reports it
            ops.failed += 1
            ops.errors.append(traceback.format_exc(limit=4))
            p = None
        finally:
            if use_trace:
                tr.uninstall()
        i += 1
        if p is None:
            continue
        if reference is None:
            reference = p.outputs
        else:
            changed = sorted(k for k in p.outputs if p.outputs[k] != reference.get(k))
            ops.check(f"{changed} differ from the first pass" if changed else None, f"pass {i} outputs")
        if use_trace:
            traced.append((p, (lo, len(tr.spans)), Counter(tr.counts) - before))
        else:
            untraced.append(p)
    if not untraced:
        raise RuntimeError("no pass completed:\n" + "\n".join(ops.errors[:3]))
    while len(setup_times) < SETUP_MIN_REPS:
        set_up()

    stages = defaultdict(list)
    for p in untraced:
        for stage, (items, secs) in p.stages.items():
            stages[stage].append(items / secs)
    setup_s = statistics.median(setup_times)
    e2e = {
        "setup_s": setup_s,
        "pass_s": statistics.median(p.seconds for p in untraced),
        "ranking_mrr": wl.quality["ranking_mrr"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "setup": {"median_s": setup_s, "reps": len(setup_times),
                  **{k: statistics.median(v) for k, v in parts.items()}},
        "stages": {STAGES[s][0]: {"unit": STAGES[s][1], "median": statistics.median(v),
                                  "min": min(v), "max": max(v), "n": len(v)}
                   for s, v in stages.items()},
        "latency": {s: _latency_summary([x for p in untraced for x in p.latencies.get(s, [])])
                    for s in ("bm25", "shard")},
        "quality": wl.quality,
        "outputs": reference,
        "counts": untraced[0].counts,
        "errors": ops.errors[:20],
    }
    if trace:
        metrics = _per_layer(tr, traced, untraced, stages, parts, wl.quality)
        report["missing_spans"] = tr.missing
        report["spans"] = tr.spans
        units = per_layer_metrics()
    else:
        metrics = e2e
        units = {k: v[:2] for k, v in END_TO_END.items()}
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }
    return result, report


def _per_layer(tr: Tracer, traced, untraced, stages, parts, quality) -> dict[str, float]:
    """Per-module metrics: means per traced pass, medians of set-up reps, exact counts."""
    m: dict[str, float] = {k: 0.0 for k in per_layer_metrics()}
    for name in SETUP_PARTS:
        if name in parts:
            m[name] = statistics.median(parts[name])
    n = len(traced)
    pad = Counter()
    lat: dict[str, list[float]] = defaultdict(list)
    for p, (lo, hi), counts in traced:
        agg = self_times(tr.spans, lo, hi)
        for metric, names in SELF_TIMES.items():
            m[metric] += sum(agg[s]["self_s"] for s in names if s in agg) / n
        for metric, span in CALLS.items():
            m[metric] += agg.get(span, {"calls": 0})["calls"] / n
        m["trace.spans_per_pass"] += (hi - lo) / n
        pad.update(counts)
        lat["retriever.query"] += children_durations(
            tr.spans, lo, hi, "retriever.retrieve_all", "retriever.retrieve")
        lat["baselines.bm25"] += op_latencies(tr.spans, lo, hi, "baselines.bm25_retrieve")
        lat["distributed.shard"] += op_latencies(tr.spans, lo, hi, "distributed.shard_retrieve")
    for name in PASS_COUNTS:
        m[name] = float(untraced[0].counts.get(name, 0))
    if traced:
        m["nn.pad_fill"] = pad["real_slots"] / pad["padded_slots"] if pad["padded_slots"] else 0.0
        m["nn.attn_fill"] = pad["real_cells"] / pad["padded_cells"] if pad["padded_cells"] else 0.0
    for name, xs in lat.items():
        s = _latency_summary(xs)
        m[f"{name}_p50_ms"] = s.get("p50_ms", 0.0)
        m[f"{name}_tail_ms"] = s.get("tail_ms", 0.0)
    for stage, (report_name, _) in STAGES.items():
        if stage in stages:
            m[f"stage.{report_name}"] = statistics.median(stages[stage])
    for name in QUALITY:
        m[f"quality.{name}"] = quality[name]
    if traced:
        m["trace.overhead_frac"] = (statistics.median(p.seconds for p, _, _ in traced)
                                    / statistics.median(p.seconds for p in untraced) - 1.0)
    m["trace.missing_spans"] = float(len(tr.missing))
    return m


def write_report(root: Path, report: dict) -> Path:
    """Full report to the work directory; the spans move out of it into their own JSON-lines file."""
    out = root / WORK_DIR / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{report['workload']}-{report['seed']}-trace{int(report['trace'])}"
    spans = report.pop("spans", None)
    if spans is not None:
        with open(out / f"{stem}.spans.jsonl", "w", encoding="utf-8") as f:
            for name, t0, t1, parent, op in spans:
                f.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent, "op": op}) + "\n")
    path = out / f"{stem}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path
