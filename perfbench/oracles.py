"""Output oracles: each returns None when the output is right, else a reason.

They recompute what the program returned by an independent route (a numpy
lexsort, a brute-force BM25 over every document, a reference merge) and
compare. Scores may differ by float rounding when a later change reorders
arithmetic, so scores compare within a tolerance and docids may swap only
inside a group of scores that tie within it.
"""

from __future__ import annotations

import numpy as np

SCORE_RTOL = 1e-5


def ranked_list_problem(items, k: int, n_docs: int, exact_len: bool = True) -> str | None:
    """min(k, n) items, non-increasing scores, ties by ascending docid, docids in range.

    BM25 lists hold only documents that share a query term, so for them
    the length is only bounded by k (the brute-force oracle checks it).
    """
    if len(items) > min(k, n_docs) or (exact_len and len(items) != min(k, n_docs)):
        return f"{len(items)} items, expected min(k={k}, n={n_docs})"
    seen = set()
    for i, (d, s) in enumerate(items):
        if not 0 <= d < n_docs:
            return f"docid {d} out of range at rank {i + 1}"
        if d in seen:
            return f"docid {d} repeated at rank {i + 1}"
        seen.add(d)
        if i and (s, -d) > (items[i - 1][1], -items[i - 1][0]):
            return f"rank {i + 1} ({d}, {s}) out of order after {items[i - 1]}"
    return None


def lexsort_top_k(scores: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Reference ranking: descending score, ties by ascending docid."""
    order = np.lexsort((np.arange(scores.shape[0]), -scores))[:k]
    return [(int(i), float(scores[i])) for i in order]


def rankings_agree(got, want, rtol: float = SCORE_RTOL) -> str | None:
    """Same length, scores equal within rtol, docids equal up to ties within rtol."""
    if len(got) != len(want):
        return f"{len(got)} items, reference has {len(want)}"
    scale = max((abs(s) for _, s in want), default=0.0) or 1.0
    tol = rtol * scale
    for i, ((_, gs), (_, ws)) in enumerate(zip(got, want)):
        if abs(gs - ws) > tol:
            return f"rank {i + 1}: score {gs!r}, reference {ws!r}"
    # docids must match as sets inside each run of reference scores tied within tol
    start = 0
    for i in range(1, len(want) + 1):
        if i == len(want) or want[i - 1][1] - want[i][1] > tol:
            if {d for d, _ in got[start:i]} != {d for d, _ in want[start:i]}:
                return f"ranks {start + 1}-{i}: docids differ from the reference"
            start = i
    return None


def model_problem(encoder, w_doc: np.ndarray, tokens, items, k: int) -> str | None:
    """The model's top k equals a lexsort of encode(q) @ w_doc."""
    scores = encoder.encode(tokens) @ w_doc
    return rankings_agree(items, lexsort_top_k(scores, k))


def bm25_problem(index, bm25_score, query_tokens, n_docs: int, items, k: int) -> str | None:
    """BM25 top k equals a brute-force bm25_score over every document."""
    scores = np.array([bm25_score(index, query_tokens, d) for d in range(n_docs)])
    matched = np.flatnonzero(scores > 0.0)
    ref = lexsort_top_k(scores[matched], min(k, matched.size))
    return rankings_agree(items, [(int(matched[i]), s) for i, s in ref])


def merge_problem(group_items: list[tuple[int, list]], group_of: np.ndarray, merged, k: int) -> str | None:
    """Merged list equals a reference raw merge; every docid belongs to its group."""
    best: dict[int, float] = {}
    for gid, items in group_items:
        for d, s in items:
            if group_of[d] != gid:
                return f"docid {d} returned by group {gid} belongs to group {int(group_of[d])}"
            if d not in best or s > best[d]:
                best[d] = s
    ref = sorted(best.items(), key=lambda e: (-e[1], e[0]))[:k]
    if [d for d, _ in merged] != [d for d, _ in ref] or [s for _, s in merged] != [s for _, s in ref]:
        return "merged list differs from the reference merge"
    return None
