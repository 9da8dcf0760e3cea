"""TREC-style run files: ``qid Q0 external_docid rank score tag``.

Ranks start at 1 and scores are written with 6 decimal places, so a run
produced twice from the same model is byte-identical. Columns are split on
whitespace, so qids, docids and the tag must be non-empty and free of it;
write_run checks the qids and the tag, the corpus readers the docids.

write_run formats each ranked list with one ``%`` template of n lines,
``"%s Q0 %s <rank> %.6f <tag>\n"`` with the rank and the tag (its ``%``
doubled) written in, built once per list length n. ``%.6f`` of a Python
float gives the same bytes as ``f"{score:.6f}"``, and one template over
the list's ``tolist()`` scores formats them about twice as fast as one
f-string per line. read_run rejects a docid or a rank repeated within a
qid, which evaluation would count as further list positions, and a score
that is not finite, which no ranking produces.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable

from .corpus import text_lines, valid_id
from .retriever import RankedList


def write_run(
    path: str | Path,
    ranked: list[RankedList],
    external_of: Callable[[int], str],
    tag: str = "paramdex",
) -> None:
    for kind, value in [("tag", tag)] + [("qid", rl.qid) for rl in ranked]:
        if not valid_id(value):
            raise ValueError(f"run file {kind} {value!r} is empty or contains whitespace")
    line_tag = tag.replace("%", "%%")
    templates: dict[int, str] = {}
    with open(path, "w", encoding="utf-8") as f:
        for rl in ranked:
            n = len(rl.ids)
            if n not in templates:
                templates[n] = "".join(f"%s Q0 %s {r} %.6f {line_tag}\n" for r in range(1, n + 1))
            args = [rl.qid] * (3 * n)  # per line: qid, external docid, score
            args[1::3] = map(external_of, rl.ids.tolist())
            args[2::3] = rl.scores.tolist()
            f.write(templates[n] % tuple(args))


def read_run(path: str | Path) -> dict[str, list[tuple[str, int, float]]]:
    """Parse a run file into qid -> [(external docid, rank, score)] by rank.

    Within a qid, each docid and each rank appears once; scores are finite.
    A docid listed under several qids is one str object in every entry."""
    runs: dict[str, list[tuple[str, int, float]]] = {}
    # local to the call: sys.intern's table is process-wide, and some CPython
    # versions never free what it holds
    docids: dict[str, str] = {}
    for where, line in text_lines(path):
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"{where}: expected 6 whitespace-separated columns")
        qid, _, docid, rank, score, _ = parts
        try:
            entry = (docids.setdefault(docid, docid), int(rank), float(score))
        except ValueError:
            raise ValueError(f"{where}: bad rank or score") from None
        if not math.isfinite(entry[2]):
            raise ValueError(f"{where}: score {score} is not finite")
        runs.setdefault(qid, []).append(entry)
    for entries in runs.values():
        entries.sort(key=lambda e: e[1])
    # one qid's docid set at a time: sets for every qid at once added ~11 MB of peak
    # memory on a 120k-line run file
    repeats = {qid for qid, entries in runs.items()
               if any(a[1] == b[1] for a, b in zip(entries, entries[1:]))
               or len({e[0] for e in entries}) < len(entries)}
    if repeats:
        _raise_first_repeat(path, repeats)
    return runs


def _raise_first_repeat(path: str | Path, qids: set[str]) -> None:
    """Raise naming the first line that repeats a docid or a rank of one of qids."""
    seen: dict[str, tuple[set[str], set[int]]] = {}
    for where, line in text_lines(path):
        qid, _, docid, rank, _, _ = line.split()
        if qid not in qids:
            continue
        docids, ranks = seen.setdefault(qid, (set(), set()))
        rank_no = int(rank)
        if docid in docids:
            raise ValueError(f"{where}: docid {docid!r} repeated for qid {qid!r}")
        if rank_no in ranks:
            raise ValueError(f"{where}: rank {rank_no} repeated for qid {qid!r}")
        docids.add(docid)
        ranks.add(rank_no)
