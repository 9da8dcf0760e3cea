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
by whitespace. A docid is a JSON string or integer; clicks, a non-negative
integer.
"""

from __future__ import annotations

import json
import logging
import re
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
    tokens: list[int]
    click_count: int = 0


def valid_id(value: str) -> bool:
    """True for a non-empty id without whitespace: one column of a run file."""
    return value.split() == [value]


@dataclass
class Query:
    qid: str
    tokens: list[int]


class Corpus:
    """Immutable collection of tokenized documents with dense internal ids."""

    def __init__(self, docs: list[Document], vocab: Vocabulary):
        self.docs = docs
        self.vocab = vocab
        self.by_external: dict[str, int] = {d.external_id: d.internal_id for d in docs}
        if len(self.by_external) != len(docs):
            raise ValueError("duplicate external ids in corpus")
        for i, d in enumerate(docs):
            if d.internal_id != i:
                raise ValueError("internal ids must be contiguous and in order")

    def __len__(self) -> int:
        return len(self.docs)

    def doc(self, internal_id: int) -> Document:
        return self.docs[internal_id]

    def external_id(self, internal_id: int) -> str:
        return self.docs[internal_id].external_id

    def take(self, internal_ids: Sequence[int]) -> tuple["Corpus", dict[int, int]]:
        """New corpus keeping `internal_ids` (given order), same vocabulary.

        Returns the corpus and the old-id -> new-id mapping.
        """
        docs = []
        id_map: dict[int, int] = {}
        for new_id, old_id in enumerate(internal_ids):
            old = self.docs[old_id]
            docs.append(Document(new_id, old.external_id, old.tokens, old.click_count))
            id_map[old_id] = new_id
        return Corpus(docs, self.vocab), id_map


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


def _doc_record(decoder: json.JSONDecoder, line: str, where: str, body: str, kind: type) -> dict:
    """The JSON record on a documents line: an object with 'docid' and a `body` of type `kind`."""
    try:
        rec = decoder.decode(line)
    except json.JSONDecodeError as e:
        raise ValueError(f"{where}: invalid JSON ({e.msg})") from None
    except ValueError as e:  # a float in docs.jsonl, or an integer too long to convert
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
    nothing are skipped with a warning; duplicate or missing fields raise.
    """
    records: list[tuple[str, list[str], int]] = []
    seen: dict[str, str] = {}
    for where, line in text_lines(path):
        rec = _doc_record(_JSON_DECODER, line, where, "text", str)
        ext, clicks = _doc_fields(rec, where, seen)
        tokens = tokenize(rec["text"])
        if not tokens:
            log.warning("%s: document '%s' is empty after tokenization, skipped", where, ext)
            continue
        records.append((ext, tokens, clicks))
    vocab = build_vocabulary((toks for _, toks, _ in records), min_freq=min_freq)
    docs = [
        Document(i, ext, [vocab.lookup(t) for t in toks], clicks)
        for i, (ext, toks, clicks) in enumerate(records)
    ]
    return Corpus(docs, vocab)


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
    """Keep `size` documents by click rank or uniform sampling; remap qrels.

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
        ranked = sorted(corpus.docs, key=lambda d: (-d.click_count, d.internal_id))
        keep = {d.internal_id for d in ranked[:size]}
    elif strategy == "random":
        perm = np.random.default_rng(seed).permutation(len(corpus))
        keep = {int(i) for i in perm[:size]}
    else:
        raise ValueError(f"unknown subset strategy '{strategy}'")
    kept_ids = sorted(keep)
    sub, id_map = corpus.take(kept_ids)
    new_qrels = {qid: id_map[d] for qid, d in qrels.items() if d in id_map}
    return sub, new_qrels


def save_corpus(corpus: Corpus, out_dir: str | Path) -> dict[str, Path]:
    """Persist a tokenized corpus as docs.jsonl + vocab.tsv under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    docs_path = out / "docs.jsonl"
    vocab_path = out / "vocab.tsv"
    with open(docs_path, "w", encoding="utf-8") as f:
        for d in corpus.docs:
            f.write(json.dumps(
                {"docid": d.external_id, "token_ids": d.tokens, "clicks": d.click_count},
                separators=(",", ":"),
            ) + "\n")
    with open(vocab_path, "w", encoding="utf-8") as f:
        for t in corpus.vocab.id_to_token:
            f.write(t + "\n")
    return {"docs": docs_path, "vocab": vocab_path}


def _not_an_integer(literal: str):
    raise ValueError(f"number {literal} is not an integer")


_JSON_DECODER = json.JSONDecoder()
# docs.jsonl holds integers only; this decoder refuses a float as it reads one,
# which costs nothing on the lines that have none
_DOCS_DECODER = json.JSONDecoder(parse_float=_not_an_integer)


def load_corpus(in_dir: str | Path) -> Corpus:
    """Load a corpus persisted by save_corpus."""
    src = Path(in_dir)
    # vocab.tsv is positional (line n holds token id n - 1): read whole, blank lines included
    vocab_path = src / "vocab.tsv"
    data = vocab_path.read_bytes()
    try:
        id_to_token = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        n = data.count(b"\n", 0, e.start) + 1
        raise ValueError(f"{vocab_path} line {n}: not valid UTF-8") from None
    if tuple(id_to_token[:3]) != RESERVED_TOKENS:
        raise ValueError(f"{vocab_path}: lines 1-3 must be the reserved tokens {' '.join(RESERVED_TOKENS)}")
    first: dict[str, int] = {}
    for n, token in enumerate(id_to_token, start=1):
        if first.setdefault(token, n) != n:
            raise ValueError(f"{vocab_path} line {n}: token {token!r} is already on line {first[token]}")
    vocab = Vocabulary(id_to_token[3:])
    valid_ids = frozenset(range(len(vocab)))  # one hash lookup per token: cheaper than min + max
    docs: list[Document] = []
    seen: dict[str, str] = {}
    for where, line in text_lines(src / "docs.jsonl"):
        rec = _doc_record(_DOCS_DECODER, line, where, "token_ids", list)
        tokens = rec["token_ids"]
        try:
            in_vocab = valid_ids.issuperset(tokens)
        except TypeError:  # an unhashable list or object among the ids
            in_vocab = False
        # true and false equal 1 and 0, so a line that spells one of them, or
        # that failed the lookup, gets the exact type check; looking for a 'u'
        # or an 'f' first (one memchr each) is several times faster than the words
        spells_bool = ("u" in line or "f" in line) and ("true" in line or "false" in line)
        if (spells_bool or not in_vocab) and any(type(t) is not int for t in tokens):
            raise ValueError(f"{where} (docid '{rec['docid']}'): token ids must be integers")
        if not in_vocab:
            raise ValueError(
                f"{where} (docid '{rec['docid']}'): "
                f"token id outside the vocabulary [0, {len(vocab)})"
            )
        ext, clicks = _doc_fields(rec, where, seen)
        docs.append(Document(len(docs), ext, tokens, clicks))
    return Corpus(docs, vocab)
