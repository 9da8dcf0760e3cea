import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paramdex.corpus import UNK_ID, Query, load_corpus, save_corpus
from paramdex.pairs import (
    NGRAM_N,
    TrainingPair,
    document_frequencies,
    extract_ngram_pairs,
    generate_pretrain_pairs,
    load_pairs,
    query_pairs,
    sample_term_sets,
    save_pairs,
    segment_passages,
    term_importance,
    weighted_sample_without_replacement,
)

from conftest import corpus_from_texts, corpus_from_token_lists


class TestSegmentPassages:
    def test_ceiling_split(self):
        out = segment_passages(list(range(300)), 0, 128)
        assert [len(p.tokens) for p in out] == [128, 128, 44]
        assert all(p.target == 0 and p.task == "passage" for p in out)

    def test_exact_window(self):
        assert len(segment_passages(list(range(128)), 0, 128)) == 1

    def test_pair_count_is_ceil(self):
        for n in (1, 5, 127, 128, 129, 1000):
            assert len(segment_passages(list(range(n)), 0, 128)) == math.ceil(n / 128)

    def test_concatenation_reproduces_document(self):
        tokens = np.random.default_rng(0).integers(3, 50, size=517).tolist()
        out = segment_passages(tokens, 3, 64)
        flat = [t for p in out for t in p.tokens]
        assert flat == tokens and {p.target for p in out} == {3}

    def test_bad_window(self):
        with pytest.raises(ValueError):
            segment_passages([3], 0, 0)


def _weights(corp, docid: int) -> dict[int, float]:
    """term_importance of one document of the corpus."""
    return term_importance(corp.doc(docid).tokens.tolist(), len(corp), document_frequencies(corp))


class TestTermImportance:
    def test_everywhere_token_weight_is_ln2(self, tiny_corpus):
        # "banana" occurs in all 3 docs, once in doc 0
        w = _weights(tiny_corpus, 0)
        banana = tiny_corpus.vocab.lookup("banana")
        assert w[banana] == pytest.approx(math.log(2.0))

    def test_linear_in_tf(self):
        corp = corpus_from_texts(["rare rare base", "base other"])
        doubled = corpus_from_texts(["rare rare rare rare base", "base other"])
        w1, w2 = _weights(corp, 0), _weights(doubled, 0)
        w1, w2 = w1[corp.vocab.lookup("rare")], w2[doubled.vocab.lookup("rare")]
        assert w2 == pytest.approx(2.0 * w1)

    def test_hand_evaluated_table(self, tiny_corpus):
        # independent reccount: weight = tf * ln(1 + n_docs/df)
        n_docs = len(tiny_corpus)
        for doc in tiny_corpus.docs:
            got = _weights(tiny_corpus, doc.internal_id)
            for token_id in set(doc.tokens):
                tf = sum(1 for t in doc.tokens if t == token_id)
                df = sum(1 for d in tiny_corpus.docs if token_id in d.tokens)
                assert got[token_id] == pytest.approx(tf * math.log(1 + n_docs / df))


class TestSampleTermSets:
    def test_pair_count_contract(self, tiny_corpus):
        rng = np.random.default_rng(0)
        assert len(sample_term_sets(0, 3, _weights(tiny_corpus, 0), rng)) == 3

    def test_few_distinct_tokens_clamp(self, tiny_corpus):
        # doc 2 has 5 distinct tokens (< 10): every sample contains all of them
        rng = np.random.default_rng(1)
        for p in sample_term_sets(2, 5, _weights(tiny_corpus, 2), rng):
            assert sorted(p.tokens) == sorted(set(tiny_corpus.doc(2).tokens.tolist())) and p.target == 2

    def test_first_draw_frequency_tracks_weight(self):
        corp = corpus_from_texts(["heavy heavy light other1 other2", "filler"])
        weights = _weights(corp, 0)
        heavy, light = corp.vocab.lookup("heavy"), corp.vocab.lookup("light")
        assert weights[heavy] == pytest.approx(2 * weights[light])
        rng = np.random.default_rng(99)
        counts = {heavy: 0, light: 0}
        for p in sample_term_sets(0, 10_000, weights, rng):
            first = p.tokens[0]
            if first in counts:
                counts[first] += 1
        ratio = counts[heavy] / counts[light]
        assert abs(ratio - 2.0) / 2.0 < 0.10

    def test_zero_weights_fall_back_to_uniform(self, tiny_corpus):
        zero = {t: 0.0 for t in set(tiny_corpus.doc(0).tokens.tolist())}
        out = sample_term_sets(0, 4, zero, np.random.default_rng(0))
        assert len(out) == 4 and all(p.tokens for p in out)

    def test_sampled_order_varies(self, tiny_corpus):
        sets = sample_term_sets(0, 50, _weights(tiny_corpus, 0), np.random.default_rng(5))
        orders = {tuple(p.tokens) for p in sets}
        assert len(orders) > 1


def _numpy_weighted_sample(items, weights, k, rng):
    """The sampler as numpy cumsum and searchsorted: the reference for the Python-float one."""
    w = weights.astype(np.float64).copy()
    if not np.any(w > 0):
        w = np.ones_like(w)
    out = []
    for _ in range(k):
        cum = np.cumsum(w)
        u = rng.random() * cum[-1]
        idx = int(np.searchsorted(cum, u, side="right"))
        out.append(items[idx])
        w[idx] = 0.0
    return out


class TestWeightedSample:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        weights=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6), st.floats(1e-300, 1e-3)), max_size=40),
        k_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_numpy_reference(self, weights, k_frac, seed):
        w = np.array(weights, dtype=np.float64)
        items = [f"t{i}" for i in range(len(w))]
        k = int(k_frac * (np.count_nonzero(w) or len(w)))
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert weighted_sample_without_replacement(items, w, k, ours) == _numpy_weighted_sample(items, w, k, ref)
        # the generator is left where the reference leaves it
        assert ours.random() == ref.random()

    @pytest.mark.parametrize("weights,k,error", [
        ([1.0, 2.0], 1, "2 weights for 3 items"),
        ([1.0, -1.0, 2.0], 1, "finite and non-negative"),
        ([1.0, float("nan"), 2.0], 1, "finite and non-negative"),
        ([1.0, float("inf"), 2.0], 1, "finite and non-negative"),
        ([1.0, 0.0, 2.0], 3, r"k = 3 is outside \[0, 2\]"),
        ([0.0, 0.0, 0.0], 4, r"k = 4 is outside \[0, 3\]"),
        ([1.0, 1.0, 1.0], -1, r"k = -1 is outside \[0, 3\]"),
    ], ids=["too-few-weights", "negative", "nan", "inf", "k-above-positive", "k-above-items", "negative-k"])
    def test_bad_weights_or_k_rejected(self, weights, k, error):
        with pytest.raises(ValueError, match=error):
            weighted_sample_without_replacement(["a", "b", "c"], np.array(weights), k, np.random.default_rng(0))

    def test_zero_uniform_never_draws_a_zero_weight(self):
        class Zeros:  # every uniform is 0.0, which ties with the running sums of leading zero weights
            def random(self, size=None):
                return 0.0 if size is None else np.zeros(size)

        w, items = np.array([0.0, 0.0, 2.0, 0.0, 1.0]), list("abcde")
        assert weighted_sample_without_replacement(items, w, 2, Zeros()) == ["c", "e"]
        assert _numpy_weighted_sample(items, w, 2, Zeros()) == ["c", "e"]

    def test_k_equal_to_positive_count_draws_every_positive_item(self):
        out = weighted_sample_without_replacement(["a", "b", "c", "d"], np.array([0.0, 3.0, 0.0, 1.0]), 2,
                                                  np.random.default_rng(0))
        assert sorted(out) == ["b", "d"]


class TestNgramPairs:
    def test_shared_trigram_yields_pair_per_document(self):
        corp = corpus_from_texts([
            "alpha beta gamma tail",
            "noise words here",
            "prefix alpha beta gamma",
        ])
        out = extract_ngram_pairs(corp, max_ngrams=10)
        gram = [corp.vocab.lookup(t) for t in ("alpha", "beta", "gamma")]
        matching = [p for p in out if p.tokens == gram]
        assert [p.target for p in matching] == [0, 2]

    def test_distinct_docs_yield_nothing(self):
        corp = corpus_from_texts(["one two three", "four five six"])
        assert extract_ngram_pairs(corp, max_ngrams=10) == []

    def test_max_ngrams_cap_prefers_high_df(self):
        corp = corpus_from_texts([
            "x y z common1 common2 common3",
            "x y z common1 common2 common3",
            "x y z other tokens here",
        ])
        out = extract_ngram_pairs(corp, max_ngrams=1)
        grams = {tuple(p.tokens) for p in out}
        assert len(grams) == 1
        # the kept trigram must have the top document frequency (3)
        assert len(out) == 3


class TestGeneratePairs:
    def test_deterministic_given_seed(self, tiny_corpus):
        a = generate_pretrain_pairs(tiny_corpus, window=3, m_samples=4, seed=7)
        b = generate_pretrain_pairs(tiny_corpus, window=3, m_samples=4, seed=7)
        assert [(p.tokens, p.target, p.task) for p in a] == [(p.tokens, p.target, p.task) for p in b]

    def test_tokens_are_python_ints(self):
        # the corpus holds numpy int32 views; pairs take Python ints from them
        corp = corpus_from_texts(["apple banana cherry date", "fig apple banana cherry"])
        out = generate_pretrain_pairs(corp, window=2, m_samples=2, seed=0)
        assert {p.task for p in out} == {"passage", "terms", "ngram"}
        assert all(len(p.tokens) == NGRAM_N == 3 for p in out if p.task == "ngram")
        assert all(type(t) is int for p in out for t in p.tokens)

    def test_targets_exist(self, tiny_corpus):
        out = generate_pretrain_pairs(tiny_corpus, window=2, m_samples=2, seed=0)
        assert all(0 <= p.target < len(tiny_corpus) for p in out)

    def test_max_ngrams_0_keeps_10_per_document(self):
        # two copies of one 30-word text share 28 distinct trigrams; 0 keeps 10 * 2 of them
        text = " ".join(f"w{i}" for i in range(30))
        corp = corpus_from_texts([text, text])
        ngrams = [p for p in generate_pretrain_pairs(corp, m_samples=1, max_ngrams=0, seed=0)
                  if p.task == "ngram"]
        assert len({tuple(p.tokens) for p in ngrams}) == 20
        assert len(ngrams) == 40

    def test_passage_count_invariant(self, tiny_corpus):
        window = 2
        out = generate_pretrain_pairs(tiny_corpus, window=window, m_samples=1, seed=0)
        for doc in tiny_corpus.docs:
            n_passages = sum(1 for p in out if p.task == "passage" and p.target == doc.internal_id)
            assert n_passages == math.ceil(len(doc.tokens) / window)


def test_save_load_roundtrip(tmp_path, tiny_corpus):
    out = generate_pretrain_pairs(tiny_corpus, window=3, m_samples=2, seed=1)
    path = tmp_path / "pairs.tsv"
    save_pairs(path, out, tiny_corpus)
    loaded = load_pairs(path, tiny_corpus)
    assert [(p.tokens, p.target, p.task) for p in loaded] == [(p.tokens, p.target, p.task) for p in out]


def test_document_without_tokens_has_no_pairs_and_the_file_reads_back(tmp_path, tiny_corpus):
    # load_corpus takes "token_ids": [], and load_pairs rejects an empty pair
    token_lists = [d.tokens.tolist() for d in tiny_corpus.docs]
    corp = corpus_from_token_lists(token_lists[:1] + [[]] + token_lists[1:], ["d0", "empty", "d1", "d2"],
                                   [0] * 4, tiny_corpus.vocab)
    out = generate_pretrain_pairs(corp, window=3, m_samples=2, seed=1)
    assert {p.target for p in out} == {0, 2, 3}
    path = tmp_path / "pairs.tsv"
    save_pairs(path, out, corp)
    loaded = load_pairs(path, corp)
    assert [(p.tokens, p.target, p.task) for p in loaded] == [(p.tokens, p.target, p.task) for p in out]


@pytest.mark.parametrize("entry", ["", " ", "two words", "tab\tbed"], ids=["blank", "space", "inner-space", "tab"])
def test_save_rejects_a_token_that_would_not_read_back(tmp_path, tiny_corpus, entry):
    # vocab.tsv may hold a blank or spaced entry (its lines are positional), but
    # load_pairs splits a pair's text at spaces: [4, 3, 6] would come back as [3, 6]
    save_corpus(tiny_corpus, tmp_path)
    vocab = tmp_path / "vocab.tsv"
    lines = vocab.read_text().splitlines()
    lines[4] = entry
    vocab.write_text("\n".join(lines) + "\n")
    corp = load_corpus(tmp_path)
    path = tmp_path / "pairs.tsv"
    with pytest.raises(ValueError, match=rf"^token id 4 \({re.escape(repr(entry))}\) is empty or contains whitespace"):
        save_pairs(path, [TrainingPair([3, 6], 0, "passage"), TrainingPair([4, 3, 6], 1, "terms")], corp)
    assert not path.exists()
    save_pairs(path, [TrainingPair([3, 6], 0, "passage")], corp)
    assert [(p.tokens, p.target) for p in load_pairs(path, corp)] == [([3, 6], 0)]


def test_load_rejects_a_task_that_pretraining_does_not_draw(tmp_path, tiny_corpus):
    # pre-training makes one draw per loaded pair, but draws only from its three tasks
    path = tmp_path / "pairs.tsv"
    ext = tiny_corpus.external_id(0)
    path.write_text(f"passage\t{ext}\tapple banana\nquery\t{ext}\tapple\n")
    with pytest.raises(ValueError, match=r"pairs.tsv line 2: task 'query' is not a pre-training task"):
        load_pairs(path, tiny_corpus)


def test_load_rejects_unknown_target(tmp_path, tiny_corpus):
    path = tmp_path / "pairs.tsv"
    path.write_text("passage\tmissing\tapple banana\n")
    with pytest.raises(ValueError, match="unknown docid"):
        load_pairs(path, tiny_corpus)


def test_load_rejects_a_token_outside_the_vocabulary(tmp_path, tiny_corpus):
    # a file written for another corpus must not train on <unk> without a word
    path = tmp_path / "pairs.tsv"
    ext = tiny_corpus.external_id(0)
    path.write_text(f"passage\t{ext}\tapple banana\nterms\t{ext}\tapple zeta banana\n")
    with pytest.raises(ValueError, match=r"pairs.tsv line 2: token 'zeta' is not in the corpus vocabulary$"):
        load_pairs(path, tiny_corpus)


def test_load_keeps_the_literal_unk_token(tmp_path, tiny_corpus):
    # save_pairs writes UNK_ID as "<unk>", and it loads back as UNK_ID
    out = [TrainingPair([UNK_ID, tiny_corpus.vocab.lookup("apple")], 1, "terms")]
    path = tmp_path / "pairs.tsv"
    save_pairs(path, out, tiny_corpus)
    assert path.read_text() == f"terms\t{tiny_corpus.external_id(1)}\t<unk> apple\n"
    [pair] = load_pairs(path, tiny_corpus)
    assert (pair.tokens, pair.target, pair.task) == ([UNK_ID, tiny_corpus.vocab.lookup("apple")], 1, "terms")


def test_query_pairs_skip_labeled_queries_without_tokens_and_log_the_count(caplog):
    # q3 has no tokens and no label: it is not a labeled query, so not counted
    queries = [Query("q1", [3, 4]), Query("q2", []), Query("q3", []), Query("q4", [5]), Query("q5", [])]
    qrels = {"q1": 0, "q2": 1, "q4": 2, "q5": 0}
    with caplog.at_level(logging.WARNING, logger="paramdex.pairs"):
        pairs = query_pairs(queries, qrels)
    assert [(p.tokens, p.target, p.task) for p in pairs] == [([3, 4], 0, "query"), ([5], 2, "query")]
    assert caplog.messages == ["2 labeled queries had no in-vocabulary tokens, skipped"]
