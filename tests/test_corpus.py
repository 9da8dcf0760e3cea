import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paramdex import corpus as corpus_mod
from paramdex.corpus import (
    Corpus,
    CLS_ID,
    PAD_ID,
    UNK_ID,
    Vocabulary,
    build_vocabulary,
    ingest_corpus,
    load_corpus,
    load_qrels,
    load_queries,
    read_qrels_file,
    resolve_qrels,
    sample_subset,
    save_corpus,
    tokenize,
)

from paramdex.distributed import merge_runs
from paramdex.pairs import extract_ngram_pairs, sample_term_sets
from paramdex.training import batches

from conftest import corpus_from_texts, corpus_from_token_lists


class TestTokenize:
    def test_empty_input(self):
        assert tokenize("") == []

    def test_case_and_punctuation(self):
        assert tokenize("The cat, the CAT") == ["the", "cat", "the", "cat"]

    def test_unknown_maps_to_unk(self):
        vocab = Vocabulary(["unknown"])
        assert tokenize("qzx unknown", vocab) == [UNK_ID, vocab.lookup("unknown")]

    def test_idempotent_on_own_output(self):
        for text in ["Hello, World! 42", "a-b_c d", "  ", "x;y;z"]:
            once = tokenize(text)
            assert tokenize(" ".join(once)) == once


class TestVocabulary:
    def test_reserved_indices(self):
        vocab = Vocabulary(["a"])
        assert (PAD_ID, UNK_ID, CLS_ID) == (0, 1, 2)
        assert vocab.token(0) == "<pad>"
        assert vocab.lookup("a") == 3

    def test_keeps_every_token(self):
        vocab = build_vocabulary([["a", "b"], ["c"]])
        assert all(t in vocab.token_to_id for t in "abc")

    def test_equal_frequency_tie_is_lexicographic(self):
        vocab = build_vocabulary([["zeta", "alpha"]])
        assert vocab.lookup("alpha") < vocab.lookup("zeta")

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_vocabulary([])


class TestIngest:
    def _write(self, tmp_path, lines):
        path = tmp_path / "docs.jsonl"
        path.write_text("\n".join(json.dumps(rec) for rec in lines) + "\n")
        return path

    def test_two_valid_lines(self, tmp_path):
        path = self._write(tmp_path, [
            {"docid": "a", "text": "alpha beta"},
            {"docid": "b", "text": "gamma", "clicks": 7},
        ])
        corp = ingest_corpus(path)
        assert len(corp) == 2
        assert [d.internal_id for d in corp.docs] == [0, 1]
        assert corp.docs[1].click_count == 7
        assert corp.docs[0].click_count == 0

    def test_duplicate_docid(self, tmp_path):
        path = self._write(tmp_path, [
            {"docid": "a", "text": "one"},
            {"docid": "a", "text": "two"},
        ])
        with pytest.raises(ValueError, match="duplicate docid"):
            ingest_corpus(path)

    def test_missing_text_names_line(self, tmp_path):
        path = self._write(tmp_path, [
            {"docid": "a", "text": "one"},
            {"docid": "b"},
        ])
        with pytest.raises(ValueError, match="line 2"):
            ingest_corpus(path)

    @pytest.mark.parametrize("bad", ["a b", "", "tab\there", "nl\n"])
    def test_docid_empty_or_with_whitespace_names_line(self, tmp_path, bad):
        path = self._write(tmp_path, [
            {"docid": "a", "text": "one"},
            {"docid": bad, "text": "two"},
        ])
        with pytest.raises(ValueError, match=r"line 2: docid .* is empty or contains whitespace"):
            ingest_corpus(path)

    def test_empty_document_skipped(self, tmp_path, caplog):
        path = self._write(tmp_path, [
            {"docid": "a", "text": "fine"},
            {"docid": "b", "text": "?!# ;"},
        ])
        corp = ingest_corpus(path)
        assert len(corp) == 1 and corp.docs[0].external_id == "a"


class TestQueriesQrels:
    def test_load_queries(self, tmp_path, tiny_corpus):
        p = tmp_path / "q.tsv"
        p.write_text("q1\tapple banana\nq2\tdate\n")
        queries = load_queries(p, tiny_corpus.vocab)
        assert [q.qid for q in queries] == ["q1", "q2"]
        assert queries[0].tokens == [tiny_corpus.vocab.lookup("apple"), tiny_corpus.vocab.lookup("banana")]

    def test_duplicate_qid_rejected(self, tmp_path, tiny_corpus):
        p = tmp_path / "q.tsv"
        p.write_text("q1\tapple\nq1\tbanana\n")
        with pytest.raises(ValueError, match="duplicate qid"):
            load_queries(p, tiny_corpus.vocab)

    @pytest.mark.parametrize("bad", ["q 1", "", " q1", "q1\u00a0"])
    def test_qid_empty_or_with_whitespace_names_line(self, tmp_path, tiny_corpus, bad):
        p = tmp_path / "q.tsv"
        p.write_text(f"q0\tapple\n{bad}\tbanana\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"line 2: qid .* is empty or contains whitespace"):
            load_queries(p, tiny_corpus.vocab)

    def test_multi_positive_keeps_first(self, tmp_path, caplog):
        p = tmp_path / "qrels.tsv"
        p.write_text("q1\td0\nq1\td1\n")
        assert read_qrels_file(p) == {"q1": "d0"}

    def test_unknown_docid_rejected(self, tmp_path, tiny_corpus):
        p = tmp_path / "qrels.tsv"
        p.write_text("q1\tnope\n")
        with pytest.raises(ValueError, match=r"qrels\.tsv line 1: unknown docid 'nope'$"):
            load_qrels(p, tiny_corpus)

    def test_unknown_docid_names_the_kept_line(self, tmp_path, tiny_corpus):
        # line 2 is an ignored extra positive; line 4 is the first kept unknown docid
        p = tmp_path / "qrels.tsv"
        p.write_text("q0\td0\nq0\tnope\nq1\td1\nq2\tgone\nq3\talso_gone\n")
        with pytest.raises(ValueError, match=r"qrels\.tsv line 4: unknown docid 'gone'$"):
            load_qrels(p, tiny_corpus)


class TestSampleSubset:
    def test_top_click_keeps_highest(self):
        corp = corpus_from_texts(["a one", "b two", "c three"], clicks=[5, 3, 9])
        qrels = {"q0": 0, "q1": 1, "q2": 2}
        sub, sub_qrels = sample_subset(corp, qrels, "top_click", 2)
        assert sorted(d.external_id for d in sub.docs) == ["d0", "d2"]
        assert set(sub_qrels) == {"q0", "q2"}

    def test_full_size_is_identity(self, tiny_corpus):
        qrels = {"q0": 0, "q2": 2}
        sub, sub_qrels = sample_subset(tiny_corpus, qrels, "top_click", len(tiny_corpus))
        assert [d.external_id for d in sub.docs] == [d.external_id for d in tiny_corpus.docs]
        assert {q: sub.external_id(d) for q, d in sub_qrels.items()} == {"q0": "d0", "q2": "d2"}

    def test_random_is_deterministic(self):
        corp = corpus_from_texts([f"tok{i} shared" for i in range(20)])
        a, _ = sample_subset(corp, {}, "random", 7, seed=11)
        b, _ = sample_subset(corp, {}, "random", 7, seed=11)
        assert [d.external_id for d in a.docs] == [d.external_id for d in b.docs]

    def test_size_zero_rejected(self, tiny_corpus):
        with pytest.raises(ValueError, match="positive"):
            sample_subset(tiny_corpus, {}, "random", 0)

    def test_query_count_monotone_in_size(self):
        rng = np.random.default_rng(3)
        corp = corpus_from_texts([f"w{i} common" for i in range(30)],
                                 clicks=list(rng.integers(0, 50, size=30)))
        qrels = {f"q{i}": i for i in range(0, 30, 2)}
        for strategy in ("top_click", "random"):
            counts = [
                len(sample_subset(corp, qrels, strategy, size, seed=5)[1])
                for size in range(1, 31)
            ]
            assert counts == sorted(counts)

    def test_remap_preserves_external_ids(self):
        corp = corpus_from_texts([f"w{i} x" for i in range(10)])
        qrels = {f"q{i}": i for i in range(10)}
        sub, sub_qrels = sample_subset(corp, qrels, "random", 6, seed=2)
        for qid, new_id in sub_qrels.items():
            assert sub.external_id(new_id) == corp.external_id(qrels[qid])


def test_save_load_roundtrip(tmp_path, tiny_corpus):
    save_corpus(tiny_corpus, tmp_path)
    loaded = load_corpus(tmp_path)
    assert len(loaded) == len(tiny_corpus)
    assert loaded.vocab.id_to_token == tiny_corpus.vocab.id_to_token
    for a, b in zip(loaded.docs, tiny_corpus.docs):
        assert (a.external_id, a.tokens.tolist(), a.click_count) == \
            (b.external_id, b.tokens.tolist(), b.click_count)


def _assert_views(corp: Corpus) -> None:
    """Every document's tokens are an int32 view of the corpus's one token array."""
    assert corp.tokens.dtype == np.int32 and corp.indptr.dtype == np.int64
    for d in corp.docs:
        assert d.tokens.dtype == np.int32 and np.shares_memory(d.tokens, corp.tokens)


def test_documents_are_views_of_one_token_array(tmp_path):
    docs = tmp_path / "in.jsonl"
    docs.write_text("".join(json.dumps({"docid": f"d{i}", "text": t}) + "\n"
                            for i, t in enumerate(["alpha beta alpha", "gamma", "beta delta gamma alpha"])))
    ingested = ingest_corpus(docs)
    _assert_views(ingested)
    save_corpus(ingested, tmp_path / "saved")
    assert _saved_docs(tmp_path / "saved") is not None  # so load_corpus takes the bulk reader
    bulk = load_corpus(tmp_path / "saved")
    (tmp_path / "saved" / "docs.jsonl").write_text(
        (tmp_path / "saved" / "docs.jsonl").read_text().replace(",", ", "))
    assert _saved_docs(tmp_path / "saved") is None  # and now the JSON loop
    loop = load_corpus(tmp_path / "saved")
    part, _ = loop.take([2, 0], {})
    for corp in (bulk, loop, part):
        _assert_views(corp)
    for corp in (bulk, loop):
        assert [d.tokens.tolist() for d in corp.docs] == [d.tokens.tolist() for d in ingested.docs]
    assert [d.tokens.tolist() for d in part.docs] == [loop.doc(i).tokens.tolist() for i in (2, 0)]


@pytest.mark.parametrize("content", ["", "\n  \n"], ids=["empty", "blank-lines"])
def test_load_rejects_docs_without_documents(tmp_path, tiny_corpus, content):
    save_corpus(tiny_corpus, tmp_path)
    (tmp_path / "docs.jsonl").write_text(content)
    with pytest.raises(ValueError, match=r"docs.jsonl: no documents$"):
        load_corpus(tmp_path)


@pytest.mark.parametrize("bad_id", [-5, 8])
def test_load_rejects_token_id_outside_vocabulary(tmp_path, tiny_corpus, bad_id):
    save_corpus(tiny_corpus, tmp_path)
    assert len(tiny_corpus.vocab) == 8
    docs = tmp_path / "docs.jsonl"
    lines = docs.read_text().splitlines(keepends=True)
    rec = json.loads(lines[1])
    rec["token_ids"][0] = bad_id
    lines[1] = json.dumps(rec) + "\n"
    docs.write_text("".join(lines))
    with pytest.raises(ValueError, match=r"docs.jsonl line 2 .*outside the vocabulary \[0, 8\)"):
        load_corpus(tmp_path)


def test_load_rejects_docid_with_whitespace(tmp_path, tiny_corpus):
    save_corpus(tiny_corpus, tmp_path)
    docs = tmp_path / "docs.jsonl"
    lines = docs.read_text().splitlines(keepends=True)
    rec = json.loads(lines[2])
    rec["docid"] = "d 2"
    lines[2] = json.dumps(rec) + "\n"
    docs.write_text("".join(lines))
    with pytest.raises(ValueError, match=r"docs.jsonl line 3: docid 'd 2' is empty or contains whitespace"):
        load_corpus(tmp_path)


# the docid bytes the bulk reader takes: printable ASCII other than space, '"' and '\'
FAST_DOCID_CHARS = "".join(c for c in map(chr, range(0x21, 0x7F)) if c not in '"\\')


def _outcome(read, *args):
    """What a reader gives: the token array and indptr with their dtypes, the docids and
    each click count with its type; or its error."""
    try:
        docs = read(*args)
    except ValueError as e:
        return "error", str(e)
    corp = docs if isinstance(docs, Corpus) else Corpus(*docs, Vocabulary([]))  # a reader's parts
    return "docs", (corp.tokens.dtype, corp.tokens.tolist(), corp.indptr.dtype, corp.indptr.tolist(),
                    corp.external_ids, [(c, type(c)) for c in corp.clicks])


def _n_vocab(corpus_dir: Path) -> int:
    return len((corpus_dir / "vocab.tsv").read_text().splitlines())


def _json_outcome(corpus_dir: Path):
    """The reference: the per-line JSON loop on the corpus's docs.jsonl."""
    return _outcome(corpus_mod._json_docs, corpus_dir / "docs.jsonl", _n_vocab(corpus_dir))


def _saved_docs(corpus_dir: Path):
    """The bulk reader's documents, or None where it declines."""
    return corpus_mod._saved_docs(corpus_dir / "docs.jsonl", _n_vocab(corpus_dir))


_docid = st.one_of(
    st.text(FAST_DOCID_CHARS, min_size=1, max_size=6),
    # each of these needs a JSON escape, is not ASCII or is not printable
    st.text(FAST_DOCID_CHARS + '"\\\x7f\x01é €', min_size=1, max_size=6),
)


@st.composite
def _saved_corpora(draw):
    n_vocab = draw(st.sampled_from([3, 4, 10, 11, 101, 1000, 1234]))
    ids = st.one_of(st.sampled_from([0, n_vocab - 1]), st.integers(0, n_vocab - 1))
    docids = draw(st.lists(_docid.filter(corpus_mod.valid_id), min_size=1, max_size=7, unique=True))
    clicks = st.one_of(st.sampled_from([0, 1, 2**31 + 1, 10**18 - 1, 10**18]),
                       st.integers(0, 2**40), st.integers(0, 10**30))
    token_lists, click_counts = zip(*[(draw(st.lists(ids, max_size=12)), draw(clicks)) for _ in docids])
    vocab = Vocabulary([f"w{i}" for i in range(n_vocab - 3)])
    return corpus_from_token_lists(token_lists, docids, click_counts, vocab)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(corp=_saved_corpora(), block_bytes=st.sampled_from([1, 60, 200, 1 << 14]))
def test_bulk_reader_equals_the_json_loop_on_saved_corpora(corp, block_bytes):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(corpus_mod, "_BLOCK_BYTES", block_bytes):
        out = Path(tmp)
        save_corpus(corp, out)
        fast = all(set(d.external_id) <= set(FAST_DOCID_CHARS) and d.click_count < 10**18
                   for d in corp.docs)
        assert (_saved_docs(out) is not None) == fast
        assert _outcome(load_corpus, out) == _json_outcome(out) == _outcome(lambda: corp)


def _set_first_id(line: str, literal: str) -> str:
    return re.sub(r'"token_ids":\[[0-9]+', f'"token_ids":[{literal}', line)


# line 2 of a saved three-document file, mutated; the expected error (None: it loads)
MUTATIONS = {
    "leading-zero-id": (lambda ln: _set_first_id(ln, "05"), "invalid JSON"),
    "empty-element": (lambda ln: re.sub(r"\[([0-9]+),", r"[\1,,", ln), "invalid JSON"),
    "trailing-comma": (lambda ln: ln.replace("],", ",],"), "invalid JSON"),
    "20-digit-id": (lambda ln: _set_first_id(ln, "9" * 20), r"token id outside the vocabulary \[0, 15\)"),
    "id-equal-to-V": (lambda ln: _set_first_id(ln, "15"), r"token id outside the vocabulary \[0, 15\)"),
    "duplicate-docid": (lambda ln: ln.replace('"d1"', '"d0"'), "duplicate docid 'd0'"),
    "blank-line": (lambda ln: "\n" + ln, None),
    "crlf": (lambda ln: ln.replace("\n", "\r\n"), None),
    "default-spacing": (lambda ln: json.dumps(json.loads(ln)) + "\n", None),
    "swapped-keys": (lambda ln: json.dumps(dict(reversed(json.loads(ln).items())), separators=(",", ":")) + "\n",
                     None),
    "extra-key": (lambda ln: ln.replace("}\n", ',"title":"x"}\n'), None),
    "extra-float-key": (lambda ln: ln.replace("}\n", ',"score":0.5}\n'), None),
    "u-escape": (lambda ln: ln.replace('"d1"', '"d\\u0031"'), None),
    "integer-docid": (lambda ln: ln.replace('"d1"', "41"), None),
    "raw-utf8-docid": (lambda ln: ln.replace('"d1"', '"dé"'), None),
    "no-clicks": (lambda ln: re.sub(r',"clicks":[0-9]+', "", ln), None),
    "no-final-newline": (lambda ln: ln, None),  # line 3 loses its newline below
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_bulk_reader_declines_what_save_corpus_does_not_write(tmp_path, mutation):
    # 15 ids, so that "05" has no more digits than the largest id
    corp = corpus_from_texts(["alpha beta gamma delta", "epsilon zeta eta theta", "iota kappa lambda mu"],
                             clicks=[3, 0, 7])
    save_corpus(corp, tmp_path)
    assert len(corp.vocab) == 15 and _saved_docs(tmp_path) is not None
    docs = tmp_path / "docs.jsonl"
    lines = docs.read_text().splitlines(keepends=True)
    mutate, error = MUTATIONS[mutation]
    lines[1] = mutate(lines[1])
    if mutation == "no-final-newline":
        lines[2] = lines[2].rstrip("\n")
    docs.write_bytes("".join(lines).encode("utf-8"))
    assert _saved_docs(tmp_path) is None
    got = _outcome(load_corpus, tmp_path)
    assert got == _json_outcome(tmp_path)
    if error is None:
        assert got[0] == "docs" and len(got[1][4]) == 3
    else:
        assert got[0] == "error" and re.match(rf"{re.escape(str(docs))} line 2\b.*: {error}", got[1]), got[1]


@pytest.mark.parametrize("joined, width, malformed", [
    (b"-1", 1, False),
    (b"-1,-1,0", 1, False),
    (b"-1,12,0,-1,-1,10", 2, False),
    (b"-1,123", 2, True),  # more digits than the largest id
    (b"-1,1,-1,99", 1, True),
    (b"-1,,3", 1, True),  # an empty element
    (b"-1,3,", 1, True),
    (b"-1,3,,-1", 1, True),
    (b"-1,05", 2, True),  # a leading zero
    (b"-1,7,-1,00", 2, True),
])
def test_malformed_ids(joined, width, malformed):
    assert corpus_mod._malformed_ids(joined, width) is malformed


# a public function's own precondition, which a direct library call reaches
# though every CLI caller checks the value first; each call breaks one
LIBRARY_GUARDS = {
    "vocabulary": (lambda c: Vocabulary(["a", "a"]), "vocabulary contains duplicate tokens"),
    "resolve_qrels": (lambda c: resolve_qrels({"q1": "nope"}, c), r"qrels: unknown docids \['nope'\]"),
    "sample_term_sets": (lambda c: sample_term_sets(0, 0, {3: 1.0}, np.random.default_rng(0)),
                         "m must be >= 1"),
    "extract_ngram_pairs": (lambda c: extract_ngram_pairs(c, max_ngrams=-1), "max_ngrams must be >= 0"),
    "batches": (lambda c: list(batches([1, 2], 0)), "batch_size must be >= 1"),
    "merge_runs": (lambda c: merge_runs([], 0), "k must be >= 1"),  # top_order is not reached
    "sample_subset": (lambda c: sample_subset(c, {"q1": 0}, "bogus", 1),
                      "unknown subset strategy 'bogus'"),
}


@pytest.mark.parametrize("guard", sorted(LIBRARY_GUARDS))
def test_library_guard_rejects_its_bad_argument(tiny_corpus, guard):
    call, message = LIBRARY_GUARDS[guard]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(tiny_corpus)
