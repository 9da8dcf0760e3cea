"""TREC-style run files: ``qid Q0 external_docid rank score tag``.

Ranks start at 1 and scores are written with 6 decimal places, so a run
produced twice from the same model is byte-identical. Columns are split on
whitespace, so qids, docids and the tag must be non-empty and free of it;
write_run checks the qids and the tag, the corpus readers the docids.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from .corpus import valid_id
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
    with open(path, "w", encoding="utf-8") as f:
        for rl in ranked:
            for rank, (docid, score) in enumerate(rl.items, start=1):
                f.write(f"{rl.qid} Q0 {external_of(docid)} {rank} {score:.6f} {tag}\n")


def read_run(path: str | Path) -> dict[str, list[tuple[str, int, float]]]:
    """Parse a run file into qid -> [(external docid, rank, score)] by rank."""
    runs: dict[str, list[tuple[str, int, float]]] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split()
            if len(parts) != 6:
                raise ValueError(f"line {lineno}: expected 6 whitespace-separated columns")
            qid, _, docid, rank, score, _ = parts
            try:
                entry = (docid, int(rank), float(score))
            except ValueError as e:
                raise ValueError(f"line {lineno}: bad rank or score") from e
            runs.setdefault(qid, []).append(entry)
    for qid in runs:
        runs[qid].sort(key=lambda e: e[1])
    return runs
