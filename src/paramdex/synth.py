"""Seeded synthetic corpus for experiments and tests.

Documents are bags of words drawn from a topic model: every topic owns a
word pool with Zipf base weights, and each document perturbs those weights
through a Dirichlet draw, so documents of one topic share vocabulary but
differ in which words run hot. A query mixes a couple of *distractor*
words (head words of a random other topic, the way real queries carry
ambiguous popular terms) with intent terms sampled from the positive
document's highest-count words. Self-supervised pairs treat every head
word as evidence for its own topic, so discounting query distractors is a
skill only the supervised pairs teach, and it transfers to held-out
queries.

Click counts are heavy-tailed and training queries target click-eligible
documents in proportion to clicks, the way real query logs concentrate on
popular documents; held-out queries target documents disjoint from every
training target, giving both a memorization signal and a generalization
probe.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .pairs import weighted_sample_without_replacement

TOPIC_VOCAB = 30  # words in each topic's pool
N_COMMON = 20  # topic-free filler words
COMMON_FRAC = 0.1  # chance that a document token is a filler word
CONCENTRATION = 8.0  # Dirichlet concentration of a document's topic-word weights
DOC_LEN = (40, 80)  # inclusive range of a document's token count


def _topic_word(t: int, j: int) -> str:
    return f"t{t:02d}w{j:02d}"


def query_counts(n_docs: int, n_train: int | None, n_heldout: int | None) -> tuple[int, int]:
    """The train and held-out query counts; None is the default, n_docs // 2 and n_docs // 5."""
    return (n_docs // 2 if n_train is None else n_train,
            n_docs // 5 if n_heldout is None else n_heldout)


def generate(
    out_dir: str | Path,
    n_docs: int = 1000,
    n_topics: int | None = None,
    query_len: tuple[int, int] = (4, 8),
    query_distractors: tuple[int, int] = (1, 2),
    distractor_head: int = 5,
    n_train: int | None = None,
    n_heldout: int | None = None,
    seed: int = 0,
) -> dict[str, Path]:
    """Write docs.jsonl, {train,heldout}_queries.tsv and matching qrels.

    Returns the paths keyed by artifact name. Deterministic for a given
    seed and parameter set. Bad counts raise ValueError before any file is
    written.
    """
    if n_docs < 2:
        raise ValueError("n_docs must be >= 2")
    n_topics = n_topics if n_topics is not None else max(4, n_docs // 50)
    n_train, n_heldout = query_counts(n_docs, n_train, n_heldout)
    for name, count, least in (("n_topics", n_topics, 1), ("n_train", n_train, 0), ("n_heldout", n_heldout, 0)):
        if count < least:
            raise ValueError(f"{name} must be >= {least}")
    if n_train + n_heldout > n_docs:
        raise ValueError("n_train + n_heldout cannot exceed n_docs")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0]))

    base = 1.0 / np.arange(1, TOPIC_VOCAB + 1)
    base /= base.sum()
    common_words = [f"fill{j:02d}" for j in range(N_COMMON)]

    doc_tokens: list[list[str]] = []
    doc_topic_counts: list[dict[str, int]] = []
    clicks = np.minimum(rng.pareto(1.0, size=n_docs) * 3.0, 500.0).astype(np.int64)
    for i in range(n_docs):
        topic = i % n_topics
        theta = rng.dirichlet(CONCENTRATION * base)
        length = int(rng.integers(DOC_LEN[0], DOC_LEN[1] + 1))
        words = []
        counts: dict[str, int] = {}
        for _ in range(length):
            if rng.random() < COMMON_FRAC:
                words.append(common_words[int(rng.integers(N_COMMON))])
            else:
                j = int(rng.choice(TOPIC_VOCAB, p=theta))
                w = _topic_word(topic, j)
                words.append(w)
                counts[w] = counts.get(w, 0) + 1
        doc_tokens.append(words)
        doc_topic_counts.append(counts)

    def make_query(doc_idx: int, qrng: np.random.Generator) -> str:
        counts = doc_topic_counts[doc_idx]
        words = sorted(counts)
        weights = np.array([counts[w] for w in words], dtype=np.float64)
        length = min(len(words), int(qrng.integers(query_len[0], query_len[1] + 1)))
        picked = weighted_sample_without_replacement(words, weights, length, qrng)
        n_distract = int(qrng.integers(query_distractors[0], query_distractors[1] + 1))
        own_topic = doc_idx % n_topics
        distract = []
        for _ in range(n_distract):
            if n_topics < 2:
                break
            other = int(qrng.integers(n_topics - 1))
            other = other + 1 if other >= own_topic else other
            distract.append(_topic_word(other, int(qrng.integers(distractor_head))))
        return " ".join(distract + picked)

    perm = rng.permutation(n_docs)
    eligible = perm[:n_train]
    heldout_docs = perm[n_train : n_train + n_heldout]
    # training queries concentrate on clicked documents; with none there is
    # no draw, and since it is rng's last draw no other output moves
    train_docs = eligible
    if n_train:
        mass = clicks[eligible].astype(np.float64) + 1.0
        train_docs = eligible[rng.choice(len(eligible), size=n_train, p=mass / mass.sum())]

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "docs": out / "docs.jsonl",
        "train_queries": out / "train_queries.tsv",
        "train_qrels": out / "train_qrels.tsv",
        "heldout_queries": out / "heldout_queries.tsv",
        "heldout_qrels": out / "heldout_qrels.tsv",
    }
    with open(paths["docs"], "w", encoding="utf-8") as f:
        for i in range(n_docs):
            f.write(json.dumps({
                "docid": f"doc{i:05d}",
                "text": " ".join(doc_tokens[i]),
                "clicks": int(clicks[i]),
            }) + "\n")
    for split, prefix, key, targets in (("train", "tq", 0xC1, train_docs),
                                        ("heldout", "hq", 0xC2, heldout_docs)):
        qrng = np.random.default_rng(np.random.SeedSequence([seed, key]))
        with open(paths[f"{split}_queries"], "w", encoding="utf-8") as fq, open(
            paths[f"{split}_qrels"], "w", encoding="utf-8"
        ) as fr:
            for n, d in enumerate(targets):
                fq.write(f"{prefix}{n:05d}\t{make_query(int(d), qrng)}\n")
                fr.write(f"{prefix}{n:05d}\tdoc{int(d):05d}\n")
    return paths
