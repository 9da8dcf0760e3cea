import json

import numpy as np
import pytest

from paramdex.corpus import (
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
    sample_subset,
    save_corpus,
    tokenize,
)

from conftest import corpus_from_texts


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

    def test_min_freq_threshold(self):
        vocab = build_vocabulary([["a", "a", "b"]], min_freq=2)
        assert "a" in vocab.token_to_id and "b" not in vocab.token_to_id

    def test_min_freq_one_keeps_all(self):
        vocab = build_vocabulary([["a", "b"], ["c"]], min_freq=1)
        assert all(t in vocab.token_to_id for t in "abc")

    def test_equal_frequency_tie_is_lexicographic(self):
        vocab = build_vocabulary([["zeta", "alpha"]], min_freq=1)
        assert vocab.lookup("alpha") < vocab.lookup("zeta")

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_vocabulary([], min_freq=1)


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
        assert (a.external_id, a.tokens, a.click_count) == (b.external_id, b.tokens, b.click_count)


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
