"""The rules every line reader shares: corpus.text_lines skips blank and
whitespace-only lines, rejects invalid UTF-8, and every error names
``<path> line <n>``; both docs.jsonl readers check docid, clicks, unknown keys
and a file without documents alike."""

import json
import re
import sys

import pytest

from paramdex.config import parse_config_file
from paramdex.corpus import (
    ingest_corpus,
    load_corpus,
    load_queries,
    read_qrels_file,
    save_corpus,
    text_lines,
)
from paramdex.distributed import partition, read_manifest, write_manifest
from paramdex.pairs import load_pairs
from paramdex.runfiles import read_run

from conftest import corpus_from_texts


def _named(path, line: int, message: str) -> str:
    return f"^{re.escape(str(path))} line {line}: {message}"


class TestTextLines:
    def test_skips_blank_and_whitespace_only_lines(self, tmp_path):
        path = tmp_path / "f.txt"
        # a lone carriage return ends a line too, as in Python's text mode
        path.write_bytes(b"a b\n\n  \t \r\n\xc2\xa0\nlast\r\n  c\rold mac")
        assert list(text_lines(path)) == [
            (f"{path} line 1", "a b"),
            (f"{path} line 5", "last"),
            (f"{path} line 6", "  c"),
            (f"{path} line 7", "old mac"),
        ]

    def test_empty_file_yields_nothing(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"")
        assert list(text_lines(path)) == []

    def test_invalid_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"ok\n\nbad \xff byte\n")
        lines = text_lines(path)
        assert next(lines) == (f"{path} line 1", "ok")
        with pytest.raises(ValueError, match=_named(path, 3, "not valid UTF-8$")):
            next(lines)


def _raw_docs(tmp_path, rec_line: str):
    path = tmp_path / "raw.jsonl"
    path.write_text('{"docid": "a", "text": "alpha beta"}\n' + rec_line + "\n")
    return path


def _tokenized_docs(tmp_path, rec_line: str):
    save_corpus(corpus_from_texts(["alpha beta", "gamma"]), tmp_path)
    docs = tmp_path / "docs.jsonl"
    docs.write_text(docs.read_text().splitlines()[0] + "\n" + rec_line + "\n")
    return docs


# (read the file at path, write a docs.jsonl whose line 2 carries the given fields)
READERS = {
    "ingest": (ingest_corpus, lambda tmp_path, fields: _raw_docs(
        tmp_path, json.dumps({"text": "gamma", **fields}))),
    "load": (lambda path: load_corpus(path.parent), lambda tmp_path, fields: _tokenized_docs(
        tmp_path, json.dumps({"token_ids": [3], **fields}))),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("clicks", [None, "many", True, False, -3, 1.5, [1], {"n": 1}],
                         ids=["null", "string", "true", "false", "negative", "float", "list", "object"])
def test_clicks_must_be_a_nonnegative_integer(tmp_path, reader, clicks):
    read, write = READERS[reader]
    path = write(tmp_path, {"docid": "b", "clicks": clicks})
    message = re.escape(f"clicks must be a non-negative integer, got {clicks!r}")
    with pytest.raises(ValueError, match=_named(path, 2, message)):
        read(path)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_clicks_integer_and_integer_docid_load(tmp_path, reader):
    read, write = READERS[reader]
    # a key other than docid, the body and clicks is ignored, whatever its JSON type
    corp = read(write(tmp_path, {"docid": 7, "clicks": 4, "score": 0.5}))
    assert (corp.docs[1].external_id, corp.docs[1].click_count) == ("7", 4)
    assert corp.docs[0].click_count == 0


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("docid", [["a"], {"a": 1}, True, None, 1.5],
                         ids=["list", "object", "bool", "null", "float"])
def test_docid_must_be_a_string_or_an_integer(tmp_path, reader, docid):
    read, write = READERS[reader]
    path = write(tmp_path, {"docid": docid})
    message = re.escape(f"docid must be a string or an integer, got {docid!r}")
    with pytest.raises(ValueError, match=_named(path, 2, message)):
        read(path)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_duplicate_docid_names_the_line(tmp_path, reader):
    read, write = READERS[reader]
    first = {"ingest": "a", "load": "d0"}[reader]  # the docid on line 1
    path = write(tmp_path, {"docid": first})
    with pytest.raises(ValueError, match=_named(path, 2, f"duplicate docid '{first}'$")):
        read(path)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_file_without_documents_names_the_file(tmp_path, reader):
    read, write = READERS[reader]
    path = write(tmp_path, {"docid": "b"})
    path.write_text("\n  \n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no documents$"):
        read(path)


# Python 3.11 on caps int <-> str conversion (4300 digits by default), and
# json.loads raises ValueError past the cap; 0 where there is no cap
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _INT_DIGITS, reason="this Python converts integers of any length")
@pytest.mark.parametrize("reader", sorted(READERS))
def test_integer_beyond_the_digit_limit_names_the_line(tmp_path, reader):
    body = {"ingest": '"text": "gamma"', "load": '"token_ids": [3]'}[reader]
    line = f'{{"docid": {"1" * (_INT_DIGITS + 1)}, {body}}}'
    path = {"ingest": _raw_docs, "load": _tokenized_docs}[reader](tmp_path, line)
    message = re.escape(f"Exceeds the limit ({_INT_DIGITS} digits) for integer string conversion")
    with pytest.raises(ValueError, match=_named(path, 2, message)):
        READERS[reader][0](path)


@pytest.mark.parametrize("line", ["5", "null", '"text"', "[1, 2]", '{"docid": "b"}', '{"text": "x"}',
                                  '{"docid": "b", "text": null}'])
def test_ingest_line_must_be_a_record_with_docid_and_text(tmp_path, line):
    path = _raw_docs(tmp_path, line)
    with pytest.raises(ValueError, match=_named(path, 2, "expected a record with 'docid' and a 'text' str$")):
        ingest_corpus(path)


def test_ingest_skips_whitespace_only_lines(tmp_path):
    path = _raw_docs(tmp_path, ' \t\n{"docid": "b", "text": "gamma"}')
    assert [d.external_id for d in ingest_corpus(path).docs] == ["a", "b"]


def test_load_corpus_skips_blank_lines_and_keeps_ids_contiguous(tmp_path):
    docs = _tokenized_docs(tmp_path, '\n  \n{"docid": "b", "token_ids": [4]}')
    corp = load_corpus(tmp_path)
    assert [(d.internal_id, d.external_id) for d in corp.docs] == [(0, "d0"), (1, "b")]


class TestVocab:
    def _corpus_dir(self, tmp_path):
        save_corpus(corpus_from_texts(["alpha beta", "gamma"]), tmp_path)
        return tmp_path / "vocab.tsv"

    def test_invalid_utf8_names_the_line(self, tmp_path):
        vocab = self._corpus_dir(tmp_path)
        lines = vocab.read_bytes().split(b"\n")
        lines[4] = b"be\xfft"
        vocab.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError, match=_named(vocab, 5, "not valid UTF-8$")):
            load_corpus(tmp_path)

    def test_duplicate_token_names_the_line(self, tmp_path):
        vocab = self._corpus_dir(tmp_path)
        lines = vocab.read_text().splitlines()
        lines[5] = lines[3]
        vocab.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=_named(vocab, 6, f"token '{lines[3]}' is already on line 4$")):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("order", [(1, 0, 2), (0, 2, 1), (0, 1, 3)], ids=["pad", "cls", "missing"])
    def test_reserved_tokens_must_lead_in_order(self, tmp_path, order):
        vocab = self._corpus_dir(tmp_path)
        lines = vocab.read_text().splitlines()
        vocab.write_text("\n".join([lines[i] for i in order] + lines[4:]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(vocab))}: lines 1-3 must be "
                                             f"the reserved tokens <pad> <unk> <cls>$"):
            load_corpus(tmp_path)

    def test_blank_token_line_keeps_its_position(self, tmp_path):
        vocab = self._corpus_dir(tmp_path)
        lines = vocab.read_text().splitlines()
        lines[4] = ""
        vocab.write_text("\n".join(lines) + "\n")
        assert load_corpus(tmp_path).vocab.id_to_token == lines

    @pytest.mark.parametrize("char", list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_only_the_line_breaks_of_text_lines_end_a_token(self, tmp_path, char):
        # str.splitlines also breaks at these, which would shift every later id by one
        vocab = self._corpus_dir(tmp_path)
        lines = vocab.read_text().splitlines()
        lines[3] += char + "x"
        vocab.write_text("\n".join(lines) + "\n")
        corp = load_corpus(tmp_path)
        assert corp.vocab.id_to_token == lines
        assert [corp.vocab.token(t) for t in corp.doc(0).tokens.tolist()] == ["alpha" + char + "x", "beta"]

    @pytest.mark.parametrize("end", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_invalid_utf8_names_the_line_at_any_line_end(self, tmp_path, end):
        vocab = self._corpus_dir(tmp_path)
        lines = vocab.read_text().splitlines()
        assert load_corpus(tmp_path).vocab.id_to_token == lines
        vocab.write_bytes(end.join(lines).encode() + end.encode())
        assert load_corpus(tmp_path).vocab.id_to_token == lines
        vocab.write_bytes(end.join(lines[:4]).encode() + end.encode() + b"be\xfft")
        with pytest.raises(ValueError, match=_named(vocab, 5, "not valid UTF-8$")):
            load_corpus(tmp_path)


def _manifest(tmp_path):
    corp = corpus_from_texts([f"w{i} shared" for i in range(4)])
    path = tmp_path / "shards.tsv"
    write_manifest(path, partition(4, 2, seed=0), corp)
    return path, corp


# (file name, valid content, bad line 2, the reader, the expected error after "line 2: ")
TSV_CASES = {
    "queries": ("q.tsv", "q1\tapple\nq2\tdate\n", "no tab here",
                lambda p, corp: load_queries(p, corp.vocab), "expected 'qid<TAB>text'"),
    "qrels": ("qrels.tsv", "q1\td0\nq2\td1\n", "q2 d1",
              lambda p, corp: read_qrels_file(p), "expected 'qid<TAB>docid', got 'q2 d1'"),
    "pairs": ("pairs.tsv", "passage\td0\tapple\nterms\td1\tdate\n", "terms\td1",
              load_pairs, "expected 3 tab-separated fields"),
    "run": ("run.txt", "q1 Q0 d0 1 2.5 t\nq1 Q0 d1 2 1.5 t\n", "q1 Q0 d1 2 1.5",
            lambda p, corp: read_run(p), "expected 6 whitespace-separated columns"),
    "config": ("exp.cfg", "lr = 0.1\nk = 5\n", "k 5",
               lambda p, corp: parse_config_file(p), "expected 'key = value'"),
}


@pytest.mark.parametrize("case", sorted(TSV_CASES))
def test_tsv_reader_error_names_file_and_line(tmp_path, tiny_corpus, case):
    name, good, bad, read, message = TSV_CASES[case]
    path = tmp_path / name
    path.write_text(good.splitlines()[0] + "\n" + bad + "\n")
    with pytest.raises(ValueError, match=_named(path, 2, re.escape(message) + "$")):
        read(path, tiny_corpus)


@pytest.mark.parametrize("case", sorted(TSV_CASES))
def test_tsv_reader_skips_whitespace_only_lines(tmp_path, tiny_corpus, case):
    name, good, _, read, _ = TSV_CASES[case]
    path = tmp_path / name
    path.write_text(good)
    expected = read(path, tiny_corpus)
    path.write_text(" \t\n" + good.replace("\n", "\n   \n", 1))
    assert read(path, tiny_corpus) == expected


@pytest.mark.parametrize("case", sorted(TSV_CASES) + ["manifest"])
def test_invalid_utf8_names_file_and_line(tmp_path, tiny_corpus, case):
    if case == "manifest":
        path, corp = _manifest(tmp_path)
        read = read_manifest
    else:
        name, good, _, read, _ = TSV_CASES[case]
        path, corp = tmp_path / name, tiny_corpus
        path.write_text(good)
    lines = path.read_bytes().split(b"\n")
    lines[1] = lines[1][:-1] + b"\xfe"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError, match=_named(path, 2, "not valid UTF-8$")):
        read(path, corp)


def test_manifest_header_is_the_first_nonblank_line(tmp_path):
    path, corp = _manifest(tmp_path)
    expected = read_manifest(path, corp)
    path.write_text("\n \n" + path.read_text())
    plan = read_manifest(path, corp)
    assert (plan.n_groups, plan.seed, plan.group_of.tolist()) == \
        (expected.n_groups, expected.seed, expected.group_of.tolist())


def test_empty_manifest_names_line_1(tmp_path):
    path, corp = _manifest(tmp_path)
    path.write_text("")
    with pytest.raises(ValueError, match=_named(path, 1, "expected the header")):
        read_manifest(path, corp)
