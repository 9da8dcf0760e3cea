import json

import pytest

from paramdex.corpus import ingest_corpus, load_qrels, load_queries, read_qrels_file
from paramdex.synth import generate


def test_deterministic_given_seed(tmp_path):
    a = generate(tmp_path / "a", n_docs=40, seed=5)
    b = generate(tmp_path / "b", n_docs=40, seed=5)
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes(), key
    c = generate(tmp_path / "c", n_docs=40, seed=6)
    assert a["docs"].read_bytes() != c["docs"].read_bytes()


def test_artifacts_are_ingestible(tmp_path):
    paths = generate(tmp_path, n_docs=30, n_train=10, n_heldout=5, seed=0)
    corp = ingest_corpus(paths["docs"])
    assert len(corp) == 30
    train_q = load_queries(paths["train_queries"], corp.vocab)
    held_q = load_queries(paths["heldout_queries"], corp.vocab)
    assert len(train_q) == 10 and len(held_q) == 5
    train_qrels = load_qrels(paths["train_qrels"], corp)
    held_qrels = load_qrels(paths["heldout_qrels"], corp)
    assert set(train_qrels) == {q.qid for q in train_q}
    assert set(held_qrels) == {q.qid for q in held_q}


def test_queries_mix_intent_terms_and_distractors(tmp_path):
    paths = generate(tmp_path, n_docs=25, n_train=10, n_heldout=5, seed=1,
                     query_distractors=(1, 2), distractor_head=5)
    docs = {}
    with open(paths["docs"]) as f:
        for line in f:
            rec = json.loads(line)
            docs[rec["docid"]] = set(rec["text"].split())
    qrels = read_qrels_file(paths["train_qrels"])
    with open(paths["train_queries"]) as f:
        for line in f:
            qid, text = line.strip().split("\t")
            words = text.split()
            outside = [w for w in words if w not in docs[qrels[qid]]]
            assert len(outside) <= 2
            # distractors are head words of some topic: tXXwYY with YY < 5
            assert all(w.startswith("t") and int(w.split("w")[1]) < 5 for w in outside)
            assert len(words) > len(outside)  # intent terms present


def test_train_and_heldout_targets_disjoint(tmp_path):
    paths = generate(tmp_path, n_docs=50, n_train=20, n_heldout=10, seed=2)
    train_qrels = read_qrels_file(paths["train_qrels"])
    held = set(read_qrels_file(paths["heldout_qrels"]).values())
    assert set(train_qrels.values()).isdisjoint(held)
    assert len(train_qrels) == 20 and len(held) == 10


def test_no_training_queries(tmp_path):
    paths = generate(tmp_path, n_docs=10, n_train=0, n_heldout=2)
    assert paths["train_queries"].read_bytes() == paths["train_qrels"].read_bytes() == b""
    assert len(paths["heldout_queries"].read_text().splitlines()) == 2
    assert len(read_qrels_file(paths["heldout_qrels"])) == 2


def test_too_many_queries_rejected(tmp_path):
    with pytest.raises(ValueError, match="exceed"):
        generate(tmp_path, n_docs=10, n_train=8, n_heldout=5)


@pytest.mark.parametrize("arg, value, message", [
    ("n_topics", 0, "n_topics must be >= 1"),
    ("n_train", -5, "n_train must be >= 0"),
    ("n_heldout", -3, "n_heldout must be >= 0"),
])
def test_bad_count_rejected_before_any_file_is_written(tmp_path, arg, value, message):
    with pytest.raises(ValueError, match=message):
        generate(tmp_path / "out", n_docs=20, **{arg: value})
    assert not (tmp_path / "out").exists()


def test_clicks_are_heavy_tailed_nonnegative(tmp_path):
    paths = generate(tmp_path, n_docs=200, seed=3)
    with open(paths["docs"]) as f:
        clicks = [json.loads(line)["clicks"] for line in f]
    assert all(0 <= c <= 500 for c in clicks)
    assert len(set(clicks)) > 3
    assert max(clicks) > 10 * (sum(clicks) / len(clicks) + 1e-9) or max(clicks) >= 100
