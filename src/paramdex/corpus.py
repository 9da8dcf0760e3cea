"""Corpus ingestion, tokenization, vocabulary, and evaluation-subset sampling.

File formats:
  documents  one JSON object per line: {"docid": str | int, "text": str, "clicks": int?}
  queries    tab-separated ``qid \\t text``
  qrels      tab-separated ``qid \\t docid`` (external ids), one positive per query

Input files are UTF-8. Every line reader (these, docs.jsonl, pairs, run
files, shard manifests, configs) goes through text_lines: blank and
whitespace-only lines are skipped, and errors read ``<path> line <n>: ...``.
vocab.tsv is positional and keeps its blank lines. Docids and qids must be
non-empty and free of whitespace, because run files separate their columns
by whitespace.

The two document readers, ingest_corpus on raw text and the JSON loop on a
saved docs.jsonl, share one rule set with one message per fault: a docid is a
JSON string or integer; clicks, a non-negative integer; a saved token id, an
integer in the vocabulary; a file without documents raises. Keys other than
docid, the body and clicks are ignored, whatever their JSON type.

load_corpus first tries a bulk reader on docs.jsonl, which takes a file only
when every line is exactly what save_corpus writes. It declines anything
else (a blank line, CRLF, other spacing, key order or keys, an escape, an
integer docid, a byte that is not ASCII, so also a saved corpus whose docids
are not printable ASCII) and any file the JSON loop would reject; the
per-line JSON loop then reads the file. That loop is the reference, and
every docs.jsonl error comes from it.
"""

from __future__ import annotations

import json
import logging
import re
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

log = logging.getLogger(__name__)

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
RESERVED_TOKENS = ("<pad>", "<unk>", "<cls>")

# lowercase + drop non-alphanumerics + whitespace split, all in one pass
_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str, vocab: "Vocabulary | None" = None) -> list:
    """Split text into normalized tokens; map to indices when a vocabulary is given.

    Unknown tokens map to UNK_ID. Empty input yields an empty sequence.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    if vocab is None:
        return tokens
    return [vocab.lookup(t) for t in tokens]


class Vocabulary:
    """Token-string to contiguous-index mapping with fixed reserved slots 0..2."""

    def __init__(self, tokens: Sequence[str]):
        self.id_to_token: list[str] = list(RESERVED_TOKENS) + list(tokens)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def token(self, idx: int) -> str:
        return self.id_to_token[idx]


def build_vocabulary(token_docs: Iterable[Sequence[str]], min_freq: int = 1) -> Vocabulary:
    """Build a vocabulary from tokenized documents.

    Keeps every token with corpus frequency >= min_freq. Index order is
    frequency descending, ties broken lexicographically, so the mapping is
    deterministic for a given corpus.
    """
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    counts: Counter = Counter()
    n_docs = 0
    for tokens in token_docs:
        n_docs += 1
        counts.update(tokens)
    if n_docs == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    kept = sorted(
        (t for t, c in counts.items() if c >= min_freq),
        key=lambda t: (-counts[t], t),
    )
    return Vocabulary(kept)


@dataclass
class Document:
    internal_id: int
    external_id: str
    tokens: np.ndarray  # int32, a view of the corpus's token array
    click_count: int = 0


def valid_id(value: str) -> bool:
    """True for a non-empty id without whitespace: one column of a run file."""
    return value.split() == [value]


@dataclass
class Query:
    qid: str
    tokens: list[int]


class Corpus:
    """Immutable tokenized documents; document i's int32 token ids are tokens[indptr[i]:indptr[i + 1]]."""

    def __init__(self, tokens: np.ndarray, lengths: Sequence[int], external_ids: list[str],
                 clicks: list[int], vocab: Vocabulary):
        self.tokens = tokens
        self.indptr = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
        self.external_ids = external_ids
        self.clicks = clicks  # Python ints: docs.jsonl allows counts beyond int64
        self.vocab = vocab
        self.by_external: dict[str, int] = {ext: i for i, ext in enumerate(external_ids)}
        if len(self.by_external) != len(external_ids):
            raise ValueError("duplicate external ids in corpus")

    def __len__(self) -> int:
        return len(self.external_ids)

    def doc(self, internal_id: int) -> Document:
        tokens = self.tokens[self.indptr[internal_id] : self.indptr[internal_id + 1]]
        return Document(internal_id, self.external_ids[internal_id], tokens, self.clicks[internal_id])

    @property
    def docs(self) -> list[Document]:
        """Every document in internal id order, built on each access."""
        return [self.doc(i) for i in range(len(self))]

    def external_id(self, internal_id: int) -> str:
        return self.external_ids[internal_id]

    def take(
        self, internal_ids: Sequence[int], qrels: dict[str, int]
    ) -> tuple["Corpus", dict[str, int]]:
        """New corpus keeping `internal_ids` (given order), same vocabulary, and
        the qrels whose positive it keeps, renumbered to its ids in qrels order."""
        views = [self.doc(i).tokens for i in internal_ids]
        part = Corpus(np.concatenate([self.tokens[:0], *views]), list(map(len, views)),
                      [self.external_ids[i] for i in internal_ids], [self.clicks[i] for i in internal_ids],
                      self.vocab)
        new_id = {old: new for new, old in enumerate(internal_ids)}
        return part, {q: new_id[d] for q, d in qrels.items() if d in new_id}


def text_lines(path: str | Path) -> Iterator[tuple[str, str]]:
    """Yield ``(where, line)`` for each line of a UTF-8 file that is not empty
    or whitespace-only, without its line ending. `where` is ``"<path> line
    <n>"``, the prefix of every error about the line. Invalid UTF-8 raises."""
    prefix = f"{path} line "
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for n, line in enumerate(f, start=1):
            if line.isspace():
                continue
            # surrogateescape decodes each byte that is not UTF-8 to U+DC80..U+DCFF
            if not line.isascii() and re.search("[\udc80-\udcff]", line):
                raise ValueError(f"{prefix}{n}: not valid UTF-8")
            yield f"{prefix}{n}", line.rstrip("\n")


def _doc_record(line: str, where: str, body: str, kind: type) -> dict:
    """The JSON record on a documents line: an object with 'docid' and a `body` of type `kind`."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as e:
        raise ValueError(f"{where}: invalid JSON ({e.msg})") from None
    except ValueError as e:  # an integer too long to convert
        raise ValueError(f"{where}: {e}") from None
    if not (isinstance(rec, dict) and "docid" in rec and isinstance(rec.get(body), kind)):
        raise ValueError(f"{where}: expected a record with 'docid' and a '{body}' {kind.__name__}")
    return rec


def _doc_fields(rec: dict, where: str, seen: dict[str, str]) -> tuple[str, int]:
    """The external docid and the click count of a docs.jsonl record; seen maps
    the docids of earlier lines to their line, and a docid already in it is rejected."""
    ext, clicks = rec["docid"], rec.get("clicks", 0)
    if type(ext) not in (str, int):  # the type of true and false is bool
        raise ValueError(f"{where}: docid must be a string or an integer, got {ext!r}")
    ext = str(ext)
    if not valid_id(ext):
        raise ValueError(f"{where}: docid {ext!r} is empty or contains whitespace")
    if type(clicks) is not int or clicks < 0:
        raise ValueError(f"{where}: clicks must be a non-negative integer, got {clicks!r}")
    if seen.setdefault(ext, where) != where:
        raise ValueError(f"{where}: duplicate docid '{ext}'")
    return ext, clicks


def ingest_corpus(path: str | Path, min_freq: int = 1) -> Corpus:
    """Read a JSONL document file, tokenize, and build the corpus vocabulary.

    Documents get internal ids in file order. Documents that tokenize to
    nothing are skipped with a warning; duplicate or missing fields, and a
    file left without documents, raise.
    """
    records: list[tuple[str, list[str], int]] = []
    seen: dict[str, str] = {}
    for where, line in text_lines(path):
        rec = _doc_record(line, where, "text", str)
        ext, clicks = _doc_fields(rec, where, seen)
        tokens = tokenize(rec["text"])
        if not tokens:
            log.warning("%s: document '%s' is empty after tokenization, skipped", where, ext)
            continue
        records.append((ext, tokens, clicks))
    if not records:
        raise ValueError(f"{path}: no documents")
    vocab = build_vocabulary((toks for _, toks, _ in records), min_freq=min_freq)
    external_ids, token_docs, clicks = zip(*records)
    tokens = np.array([vocab.lookup(t) for toks in token_docs for t in toks], dtype=np.int32)
    return Corpus(tokens, list(map(len, token_docs)), list(external_ids), list(clicks), vocab)


def load_queries(path: str | Path, vocab: Vocabulary) -> list[Query]:
    """Read a `qid \\t text` file and tokenize with the corpus vocabulary."""
    queries: list[Query] = []
    seen: set[str] = set()
    for where, line in text_lines(path):
        qid, tab, text = line.partition("\t")
        if not tab:
            raise ValueError(f"{where}: expected 'qid<TAB>text'")
        if not valid_id(qid):
            raise ValueError(f"{where}: qid {qid!r} is empty or contains whitespace")
        if qid in seen:
            raise ValueError(f"{where}: duplicate qid '{qid}'")
        seen.add(qid)
        queries.append(Query(qid, tokenize(text, vocab)))
    return queries


def read_qrels_file(path: str | Path) -> dict[str, str]:
    """Read `qid \\t docid` lines into a qid -> external docid mapping.

    A query with several positives keeps the first and logs a warning.
    """
    qrels: dict[str, str] = {}
    for where, line in text_lines(path):
        qid, _, docid = line.partition("\t")
        if not (valid_id(qid) and valid_id(docid)):
            raise ValueError(f"{where}: expected 'qid<TAB>docid', got {line!r}")
        if qid in qrels:
            log.warning("%s: extra positive for qid '%s' ignored", where, qid)
            continue
        qrels[qid] = docid
    return qrels


def resolve_qrels(qrels_ext: dict[str, str], corpus: Corpus) -> dict[str, int]:
    """Map external qrels docids to internal ids; unknown docids raise."""
    missing = sorted(d for d in qrels_ext.values() if d not in corpus.by_external)
    if missing:
        raise ValueError(f"qrels: unknown docids {missing[:10]}")
    return {qid: corpus.by_external[d] for qid, d in qrels_ext.items()}


def load_qrels(path: str | Path, corpus: Corpus) -> dict[str, int]:
    """read_qrels_file resolved against the corpus. A kept docid that the
    corpus lacks raises naming its line; only then is the file read again."""
    qrels_ext = read_qrels_file(path)
    if any(d not in corpus.by_external for d in qrels_ext.values()):
        for where, line in text_lines(path):
            qid, _, docid = line.partition("\t")
            if qrels_ext[qid] == docid and docid not in corpus.by_external:
                raise ValueError(f"{where}: unknown docid '{docid}'")
    return resolve_qrels(qrels_ext, corpus)


def sample_subset(
    corpus: Corpus,
    qrels: dict[str, int],
    strategy: str,
    size: int,
    seed: int = 0,
) -> tuple[Corpus, dict[str, int]]:
    """Keep `size` documents by click rank or uniform sampling: the part and
    its qrels, as Corpus.take returns them.

    top_click keeps the highest-click documents (ties by ascending internal
    id). random takes a seeded permutation prefix, so subsets are nested
    across sizes for a fixed seed. Surviving documents keep their original
    relative order; queries whose positive is dropped are dropped too.
    """
    if size <= 0:
        raise ValueError("subset size must be positive")
    if size > len(corpus):
        raise ValueError(f"subset size {size} exceeds corpus size {len(corpus)}")
    if strategy == "top_click":
        keep = set(sorted(range(len(corpus)), key=lambda i: (-corpus.clicks[i], i))[:size])
    elif strategy == "random":
        perm = np.random.default_rng(seed).permutation(len(corpus))
        keep = {int(i) for i in perm[:size]}
    else:
        raise ValueError(f"unknown subset strategy '{strategy}'")
    return corpus.take(sorted(keep), qrels)


def save_corpus(corpus: Corpus, out_dir: str | Path) -> dict[str, Path]:
    """Persist a tokenized corpus as docs.jsonl + vocab.tsv under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    docs_path = out / "docs.jsonl"
    vocab_path = out / "vocab.tsv"
    with open(docs_path, "w", encoding="utf-8") as f:
        for d in corpus.docs:
            f.write(json.dumps(
                {"docid": d.external_id, "token_ids": d.tokens.tolist(), "clicks": d.click_count},
                separators=(",", ":"),
            ) + "\n")
    with open(vocab_path, "w", encoding="utf-8") as f:
        for t in corpus.vocab.id_to_token:
            f.write(t + "\n")
    return {"docs": docs_path, "vocab": vocab_path}


# a docs.jsonl line exactly as save_corpus writes it: json.dumps escapes nothing
# in a docid of printable ASCII other than space, '"' and '\\'; a click count of
# more than 18 digits goes to the JSON loop, so int() never meets its digit limit
_SAVED_DOC_RE = re.compile(
    rb'^\{"docid":"([!#-\[\]-~]+)","token_ids":\[([0-9,]*)\],"clicks":(0|[1-9][0-9]{0,17})\}\n',
    re.MULTILINE,
)
# docs.jsonl bytes parsed at once, in whole lines: a bound in bytes, not lines,
# keeps each block's arrays small however long the file or its documents
_BLOCK_BYTES = 1 << 14


def _malformed_ids(joined: bytes, width: int) -> bool:
    """True when the comma-separated ids in `joined`, each document's led by
    the sentinel -1, hold an empty element, a leading zero or more than
    `width` digits: anything np.fromstring would not read as JSON does."""
    text = np.frombuffer(joined, dtype=np.uint8)
    comma = text == ord(",")
    digit = text >= ord("0")  # the other bytes are commas and the sentinels' '-'
    if comma[-1] or (comma[1:] & comma[:-1]).any():
        return True
    if (comma[:-2] & (text[1:-1] == ord("0")) & digit[2:]).any():
        return True
    if len(text) <= width:
        return False
    run = digit[width:].copy()  # run[i]: bytes i .. i + width are all digits
    for k in range(1, width + 1):
        run &= digit[width - k : -k]
    return bool(run.any())


def _saved_docs(path: Path, n_vocab: int) -> tuple | None:
    """Corpus's tokens, lengths, docids and clicks from a docs.jsonl whose every
    line is exactly what save_corpus writes, or None (declined) when a line is anything else or the
    file holds no documents, an id outside [0, n_vocab) or a docid twice.

    Each block of lines is matched by one regex, and its token ids parsed by
    one np.fromstring, each document's ids led by a -1 so that an empty list
    still marks its place.
    """
    width = len(str(n_vocab - 1))
    token_parts, lengths, external_ids, clicks = [], [], [], []
    with open(path, "rb") as f:
        while lines := f.readlines(_BLOCK_BYTES):
            found = _SAVED_DOC_RE.findall(b"".join(lines))
            if len(found) != len(lines):  # so each line is one match, all ASCII
                return None
            docids, id_lists, click_counts = zip(*found)
            joined = b",".join([b"-1," + s if s else b"-1" for s in id_lists])
            if _malformed_ids(joined, width):
                return None
            ids = np.fromstring(joined, dtype=np.int64, sep=",")
            starts = np.flatnonzero(ids < 0)
            lengths.append(np.diff(starts, append=ids.size) - 1)
            ids = np.delete(ids, starts)
            if ids.size and ids.max() >= n_vocab:
                return None
            token_parts.append(ids.astype(np.int32))
            external_ids += map(bytes.decode, docids)
            clicks += map(int, click_counts)
    if not external_ids or len(set(external_ids)) != len(external_ids):
        return None
    return np.concatenate(token_parts), np.concatenate(lengths), external_ids, clicks


def _json_docs(path: Path, n_vocab: int) -> tuple:
    """Corpus's tokens, lengths, docids and clicks from a docs.jsonl, one JSON
    record per line: the reference reader, and the source of every docs.jsonl error."""
    vocab_ids = set(range(n_vocab))  # one hash lookup per token checks the id, cheaper than min + max
    tokens = array("i")
    docs: list[tuple[str, int, int]] = []  # docid, clicks, token count
    seen: dict[str, str] = {}
    for where, line in text_lines(path):
        rec = _doc_record(line, where, "token_ids", list)
        raw = rec["token_ids"]
        # the exact type: true and false equal 1 and 0, and 3.0 equals 3
        if not {int}.issuperset(map(type, raw)):
            raise ValueError(f"{where} (docid '{rec['docid']}'): token ids must be integers")
        if not vocab_ids.issuperset(raw):
            raise ValueError(
                f"{where} (docid '{rec['docid']}'): "
                f"token id outside the vocabulary [0, {n_vocab})"
            )
        tokens.fromlist(raw)
        docs.append((*_doc_fields(rec, where, seen), len(raw)))
    if not docs:
        raise ValueError(f"{path}: no documents")
    external_ids, clicks, lengths = zip(*docs)
    return np.array(tokens, dtype=np.int32), lengths, list(external_ids), list(clicks)


def load_corpus(in_dir: str | Path) -> Corpus:
    """Load a corpus persisted by save_corpus.

    A docs.jsonl whose every line is exactly what save_corpus writes is
    parsed in bulk (_saved_docs). Any other file, or one that breaks a rule
    (an id outside the vocabulary, a repeated docid, no documents), is read
    by the per-line JSON loop (_json_docs): that loop is the reference, and
    every docs.jsonl error comes from it. Both give the same int32 token
    array. A docs.jsonl without documents raises.
    """
    src = Path(in_dir)
    # vocab.tsv is positional (line n holds token id n - 1): read whole, blank lines included
    vocab_path = src / "vocab.tsv"
    id_to_token = []
    # bytes, unlike str, break lines only where text_lines does: at \n, \r\n and \r
    for n, line in enumerate(vocab_path.read_bytes().splitlines(), start=1):
        try:
            id_to_token.append(line.decode("utf-8"))
        except UnicodeDecodeError:
            raise ValueError(f"{vocab_path} line {n}: not valid UTF-8") from None
    if tuple(id_to_token[:3]) != RESERVED_TOKENS:
        raise ValueError(f"{vocab_path}: lines 1-3 must be the reserved tokens {' '.join(RESERVED_TOKENS)}")
    first: dict[str, int] = {}
    for n, token in enumerate(id_to_token, start=1):
        if first.setdefault(token, n) != n:
            raise ValueError(f"{vocab_path} line {n}: token {token!r} is already on line {first[token]}")
    vocab = Vocabulary(id_to_token[3:])
    docs_path = src / "docs.jsonl"
    parts = _saved_docs(docs_path, len(vocab)) or _json_docs(docs_path, len(vocab))
    return Corpus(*parts, vocab)
