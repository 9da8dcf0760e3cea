"""TREC-style run files: ``qid Q0 external_docid rank score tag``.

Ranks start at 1 and scores are written as ``%.6f`` writes them, so a run
produced twice from the same model is byte-identical. Columns are split on
whitespace, so qids, docids and the tag must be non-empty and free of it;
write_run checks the qids and the tag, the corpus readers the docids.
write_run also checks that each list's ids and scores are 1-D arrays of
one length and that every score is finite, as read_run requires, before it
creates the file.

write_run builds the file's bytes with numpy array operations, in blocks of
at most _BLOCK_LINES lines. Each text field is a row gathered from a table
of utf-8 bytes, padded with zeros: ``qid Q0 `` per list, ``external_id ``
per distinct docid (so external_of is called once per distinct docid) and
``rank `` per rank. A block is a (lines, width) uint8 matrix of the fields
side by side plus a mask of the bytes each line holds; the masked bytes,
in row order, are the block's lines.

The score is the sign (np.signbit, so -0.0 and tiny negatives keep their
``-``), whole = floor(|x|), ``.`` and six digits of frac = rint(f), with
f = (|x| - whole) * 1e6 and a carry into whole when frac is 1e6.
|x| - whole is exact and f is one rounding of a value below 2**20, off by
at most 2**-33 from the exact product. So when |f - rint(f)| < 0.5 - 1e-9
the exact product rounds to rint(f), as the correctly rounded ``%.6f`` of
CPython rounds it. A score within 1e-9 of a tie (float32 scores such as
0.0078125 are exact ties) or with |x| >= 1e15 takes the bytes of
``"%.6f" % x`` in the same block, which is why the score field has no
fixed width. Scores are upcast to float64 first, which is exact, and
``tolist()`` of a float32 score is that same float64 value.

read_run rejects a docid or a rank repeated within a qid, which evaluation
would count as further list positions, and a score that is not finite,
which no ranking produces.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable

import numpy as np

from .corpus import text_lines, valid_id
from .retriever import RankedList

_BLOCK_LINES = 16384  # lines assembled at once, so memory stays flat however long the file
_TIE = 0.5 - 1e-9  # |f - rint(f)| below this: f's rounding cannot cross a tie
# "00" to "99", two ascii bytes per uint16 in memory order
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), dtype=np.uint16)


def write_run(
    path: str | Path,
    ranked: list[RankedList],
    external_of: Callable[[int], str],
    tag: str = "paramdex",
) -> None:
    for kind, value in [("tag", tag)] + [("qid", rl.qid) for rl in ranked]:
        if not valid_id(value):
            raise ValueError(f"run file {kind} {value!r} is empty or contains whitespace")
    for rl in ranked:
        if rl.ids.ndim != 1 or rl.scores.shape != rl.ids.shape:
            raise ValueError(f"run file qid {rl.qid!r}: ids of shape {rl.ids.shape} and scores of "
                             f"shape {rl.scores.shape} are not 1-D arrays of one length")
    ranked = [rl for rl in ranked if len(rl.ids)]  # a list without items writes no line
    lengths = np.array([len(rl.ids) for rl in ranked], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    scores = np.concatenate([rl.scores for rl in ranked] or [np.empty(0)], dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(scores))
    if len(bad):
        qid = ranked[np.searchsorted(starts, bad[0], side="right") - 1].qid
        raise ValueError(f"run file qid {qid!r}: score {float(scores[bad[0]])} is not finite")
    ids = np.concatenate([rl.ids for rl in ranked] or [np.empty(0, dtype=np.int64)])
    docids, slot = np.unique(ids, return_inverse=True)
    which = np.repeat(np.arange(len(ranked)), lengths)  # each line's list
    fields = [  # (table, valid, each line's row)
        (*_table([f"{rl.qid} Q0 " for rl in ranked]), which),
        (*_table([f"{external_of(d)} " for d in docids.tolist()]), slot),
        (*_table([f"{r} " for r in range(1, int(lengths.max(initial=0)) + 1)]),
         np.arange(len(ids)) - starts[which]),
    ]
    tail = np.frombuffer(f" {tag}\n".encode(), dtype=np.uint8)
    with open(path, "wb") as f:
        for s in range(0, len(ids), _BLOCK_LINES):
            block = slice(s, s + _BLOCK_LINES)
            f.write(_lines([(t, v, rows[block]) for t, v, rows in fields], scores[block], tail))


def _table(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Each string's utf-8 bytes as a row of a zero-padded uint8 matrix, and the mask of its bytes."""
    raw = [s.encode() for s in strings]
    lengths = np.fromiter(map(len, raw), dtype=np.int64, count=len(raw))
    valid = np.arange(lengths.max(initial=0)) < lengths[:, None]
    table = np.zeros(valid.shape, dtype=np.uint8)
    table[valid] = np.frombuffer(b"".join(raw), dtype=np.uint8)
    return table, valid


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """(n, width) ascii digits of non-negative int64 values, right-aligned, zero-filled."""
    pairs = np.empty((len(values), (width + 1) // 2), dtype=np.uint16)
    for j in reversed(range(pairs.shape[1])):
        values, low = np.divmod(values, 100)
        pairs[:, j] = _PAIRS.take(low)
    return pairs.view(np.uint8)[:, 2 * pairs.shape[1] - width:]


def _lines(fields: list[tuple[np.ndarray, np.ndarray, np.ndarray]], x: np.ndarray,
           tail: np.ndarray) -> bytes:
    """The bytes of len(x) lines: each field's rows, then x as %.6f formats it, then tail."""
    a = np.abs(x)
    whole = np.floor(a)
    f = a - whole
    f *= 1e6
    frac = np.rint(f)
    exact = (np.abs(f - frac) < _TIE) & (a < 1e15)
    carry = frac == 1e6
    whole[carry] += 1
    frac[carry] = 0
    whole[~exact] = 0
    whole = whole.astype(np.int64)
    slow = np.flatnonzero(~exact)
    slow_table, slow_valid = _table(["%.6f" % v for v in x[slow].tolist()])

    n_whole = len(str(int(whole.max(initial=0))))
    widths = [t.shape[1] for t, _, _ in fields] + [max(n_whole + 8, slow_table.shape[1]), len(tail)]
    bounds = np.cumsum([0] + widths).tolist()
    out = np.empty((len(x), bounds[-1]), dtype=np.uint8)
    valid = np.ones(out.shape, dtype=bool)
    for (table, mask, rows), lo, hi in zip(fields, bounds, bounds[1:]):
        out[:, lo:hi] = table.take(rows, axis=0)
        valid[:, lo:hi] = mask.take(rows, axis=0)
    lo, hi = bounds[-3:-1]
    point = lo + 1 + n_whole
    out[:, lo] = ord("-")
    valid[:, lo] = np.signbit(x)
    out[:, lo + 1:point] = _digits(whole, n_whole)
    # a digit above the units is written when the value reaches its power of ten
    valid[:, lo + 1:point - 1] = whole[:, None] >= 10 ** np.arange(n_whole - 1, 0, -1)
    out[:, point] = ord(".")
    out[:, point + 1:point + 7] = _digits(frac.astype(np.int64), 6)
    valid[:, point + 7:hi] = False
    valid[slow, lo:hi] = False
    out[slow, lo:lo + slow_table.shape[1]] = slow_table
    valid[slow, lo:lo + slow_table.shape[1]] = slow_valid
    out[:, hi:] = tail
    return out[valid].tobytes()


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
