"""Seeded workload inputs, built once per (workload, seed, sizes) and cached.

Fixture work is untimed: a separate process runs paramdex's own synthetic
generator and ingestion, so neither its time nor its memory reaches the
measuring process. The program later sees only the files written here.
The retrieve fixture also writes checkpoints drawn from the seeded
initialisers (Encoder.init and an N(0, 0.02) docid matrix, as train_vanilla
starts from), because retrieval cost does not depend on the weights.

Run directly: python3 perfbench/fixtures.py --workload W --seed N --sizes JSON --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

QUERY_FILES = ("train_queries", "train_qrels", "heldout_queries", "heldout_qrels")
KEEP_PER_WORKLOAD = 12
# the sizes a fixture depends on; the rest only shape the passes
FIXTURE_SIZES = ("n_docs", "n_train", "n_heldout", "n_groups")
FIXTURE_TIMEOUT_S = 600


def _build(workload: str, seed: int, sizes: dict, out: Path) -> None:
    import numpy as np

    from paramdex import checkpoint, corpus, distributed, synth
    from paramdex.nn import Encoder, EncoderConfig

    raw = out / "raw"
    paths = synth.generate(raw, n_docs=sizes["n_docs"], n_train=sizes["n_train"],
                           n_heldout=sizes["n_heldout"], seed=seed)
    corp = corpus.ingest_corpus(paths["docs"])
    corpus.save_corpus(corp, out / "corpus")
    for name in QUERY_FILES:
        shutil.copyfile(paths[name], out / f"{name}.tsv")
    shutil.rmtree(raw)
    if workload != "retrieve":
        return

    enc_cfg = EncoderConfig(vocab_size=len(corp.vocab))

    def rng(*key):
        return np.random.default_rng(np.random.SeedSequence([seed, *key]))

    def save(path: Path, key: int, n_docs: int) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        enc = Encoder.init(enc_cfg, rng(key, 0))
        w_doc = rng(key, 1).normal(0.0, 0.02, size=(enc_cfg.d_model, n_docs)).astype(np.float32)
        checkpoint.save_model(path, enc_cfg, enc.params, w_doc)

    save(out / "model.ckpt", 0, len(corp))
    plan = distributed.partition(len(corp), sizes["n_groups"], seed=seed)
    (out / "shards").mkdir()
    distributed.write_manifest(out / "shards" / "shards.tsv", plan, corp)
    for gid, members in enumerate(plan.groups):
        save(out / "shards" / f"group{gid:02d}" / "model.ckpt", 10 + gid, len(members))


def ensure(workload: str, seed: int, sizes: dict, cache: Path) -> tuple[Path, bool]:
    """Directory holding the fixture, and whether this call had to build it."""
    sizes = {k: v for k, v in sizes.items() if k in FIXTURE_SIZES}
    digest = hashlib.sha256(json.dumps(sizes, sort_keys=True).encode()).hexdigest()[:12]
    final = cache / f"{workload}-{seed}-{digest}"
    done = final / "COMPLETE"
    if done.is_file():
        os.utime(done)
        return final, False
    cache.mkdir(parents=True, exist_ok=True)
    tmp = cache / f".{final.name}.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--sizes", json.dumps(sizes), "--out", str(tmp)]
    try:
        subprocess.run(cmd, check=True, timeout=FIXTURE_TIMEOUT_S)
        (tmp / "COMPLETE").write_text("")
        shutil.rmtree(final, ignore_errors=True)
        tmp.rename(final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    _evict(cache, workload)
    return final, True


def _evict(cache: Path, workload: str) -> None:
    """Keep the most recently used fixtures of a workload."""
    built = [d for d in cache.glob(f"{workload}-*") if (d / "COMPLETE").is_file()]
    built.sort(key=lambda d: (d / "COMPLETE").stat().st_mtime, reverse=True)
    for d in built[KEEP_PER_WORKLOAD:]:
        shutil.rmtree(d, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--sizes", required=True, help="JSON object of workload sizes")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    _build(args.workload, args.seed, json.loads(args.sizes), Path(args.out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
