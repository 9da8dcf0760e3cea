import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from paramdex import retriever
from paramdex.corpus import Query
from paramdex.nn import Encoder, EncoderConfig, forward_backward, softmax
from paramdex.pairs import TrainingPair, generate_pretrain_pairs
from paramdex.retriever import (
    QUERY_BLOCK,
    DocidRetriever,
    init_overdense,
    run_stage,
    score_all,
    top_k,
    train_overdense,
    train_vanilla,
)
from paramdex.training import TrainConfig

from conftest import as_pairs, corpus_from_texts


class TestScoreAll:
    def test_zero_query_vector(self):
        w = np.random.default_rng(0).normal(size=(8, 5))
        logits = score_all(np.zeros((1, 8)), w)
        assert np.array_equal(logits, np.zeros((1, 5)))
        np.testing.assert_allclose(softmax(logits), np.full((1, 5), 0.2))

    def test_equal_logits_split_probability(self):
        v = np.array([[1.0, 0.0]])
        w = np.array([[1.0, 1.0], [5.0, 5.0]])
        np.testing.assert_allclose(softmax(score_all(v, w)), [[0.5, 0.5]])

    def test_matches_hand_evaluated_product(self):
        # independent oracle: plain python dot products and softmax, row by row
        rng = np.random.default_rng(7)
        v = rng.normal(size=(3, 6))
        w = rng.normal(size=(6, 5))
        logits = score_all(v, w)
        assert logits.shape == (3, 5)
        for b in range(3):
            expected_logits = [sum(v[b, i] * w[i, j] for i in range(6)) for j in range(5)]
            exp = [math.exp(l - max(expected_logits)) for l in expected_logits]
            expected_probs = [e / sum(exp) for e in exp]
            np.testing.assert_allclose(logits[b], expected_logits, atol=1e-9)
            np.testing.assert_allclose(softmax(logits[b]), expected_probs, atol=1e-9)

    def test_probs_normalized(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            logits = score_all(rng.normal(size=(3, 4)), rng.normal(size=(4, 30)))
            probs = softmax(logits)
            assert np.all(probs >= 0) and np.all(abs(probs.sum(axis=1) - 1) < 1e-6)
            # softmax is monotone: identical rankings
            for row, prow in zip(logits, probs):
                assert np.array_equal(np.argsort(-row, kind="stable"),
                                      np.argsort(-prow, kind="stable"))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            score_all(np.zeros((1, 3)), np.zeros((4, 2)))
        with pytest.raises(ValueError, match="mismatch"):
            score_all(np.zeros(4), np.zeros((4, 2)))  # one query is a (1, d) block


class TestTopK:
    def test_basic_argsort(self):
        assert as_pairs(*top_k(np.array([1.0, 3.0, 2.0]), 2)) == [(1, 3.0), (2, 2.0)]

    def test_tie_break_by_docid(self):
        assert as_pairs(*top_k(np.array([2.0, 2.0, 1.0]), 2)) == [(0, 2.0), (1, 2.0)]

    def test_k_nonpositive(self):
        with pytest.raises(ValueError):
            top_k(np.array([1.0]), 0)

    def test_k_exceeding_corpus(self):
        ids, scores = top_k(np.array([1.0, 2.0]), 10)
        assert len(ids) == len(scores) == 2

    def test_matches_exhaustive_sort_oracle(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=200)
        logits[17] = logits[101]  # force one tie
        oracle = sorted(range(200), key=lambda i: (-logits[i], i))
        for k in (1, 5, 10, 200):
            assert top_k(logits, k)[0].tolist() == oracle[:k]


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [1, 3])
    def test_non_finite_logits_rejected(self, bad, k):
        with pytest.raises(ValueError, match="non-finite"):
            top_k(np.array([1.0, bad, 2.0]), k)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        values=st.one_of(
            # long arrays from a small set: ties straddle the k-th place
            st.lists(st.sampled_from([-2.5, -0.0, 0.0, 0.5, 3.0]), min_size=1, max_size=200),
            st.lists(
                st.one_of(st.sampled_from([-2.5, -0.0, 0.0, 0.5, 3.0]),
                          st.floats(-1e3, 1e3, width=32)),
                min_size=1, max_size=60,
            ),
        ),
        k=st.integers(1, 70),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    @example(values=[1.0, 2.0, 0.5, 2.0, 2.0, 0.0], k=2, dtype=np.float64)  # 3 ties for 2 places
    def test_matches_lexsort_reference(self, values, k, dtype):
        logits = np.array(values, dtype=dtype)
        # last key is primary: descending score, then ascending docid
        order = np.lexsort((np.arange(len(logits)), -logits))[:k]
        ids, scores = top_k(logits, k)
        assert ids.dtype == np.int64 and scores.dtype == logits.dtype
        assert as_pairs(ids, scores) == [(int(i), float(logits[i])) for i in order]


def _rankings_agree(got, want, rtol=1e-5):
    """Scores equal within rtol; docids equal as sets inside each run of tied reference scores."""
    assert len(got) == len(want)
    tol = rtol * (max((abs(s) for _, s in want), default=0.0) or 1.0)
    for (_, gs), (_, ws) in zip(got, want):
        assert abs(gs - ws) <= tol
    start = 0
    for i in range(1, len(want) + 1):
        if i == len(want) or want[i - 1][1] - want[i][1] > tol:
            assert {d for d, _ in got[start:i]} == {d for d, _ in want[start:i]}
            start = i


class TestRetrieveAll:
    CFG = EncoderConfig(vocab_size=20, d_model=16, n_layers=1, n_heads=2, d_ff=32, max_len=12)
    N_DOCS = 40

    def _model(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(self.CFG.d_model, self.N_DOCS)).astype(np.float32)
        w[:, 30:] = w[:, :10]  # duplicate columns: tied scores
        return DocidRetriever(Encoder.init(self.CFG, seed), w)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        n_queries=st.sampled_from([1, 2, QUERY_BLOCK, QUERY_BLOCK + 1, 2 * QUERY_BLOCK + 3]),
        k=st.sampled_from([1, 7, N_DOCS, N_DOCS + 5]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_query_lexsort_reference(self, n_queries, k, seed):
        model = self._model(seed)
        rng = np.random.default_rng(seed + 1)
        queries = [Query(f"q{i}", [int(t) for t in rng.integers(3, 20, size=rng.integers(0, 15))])
                   for i in range(n_queries)]
        queries[-1] = Query("empty", [])
        got = model.retrieve_all(queries, k)
        assert [rl.qid for rl in got] == [q.qid for q in queries]
        for q, rl in zip(queries, got):
            scores = model.encoder.encode(q.tokens) @ model.w_doc
            order = np.lexsort((np.arange(self.N_DOCS), -scores))[:k]
            _rankings_agree(rl.items, [(int(i), float(scores[i])) for i in order])

    def test_retrieve_is_retrieve_all_of_one_query(self):
        model = self._model(3)
        for tokens in ([], [5], list(range(3, 16))):
            q = Query("q", tokens)
            for k in (1, 10, self.N_DOCS):
                assert model.retrieve(q, k).items == model.retrieve_all([q], k)[0].items


class TestInitOverdense:
    def test_columns_are_dense_vectors(self):
        rng = np.random.default_rng(0)
        index = rng.normal(size=(7, 4)).astype(np.float32)
        w = init_overdense(index, 7)
        assert w.shape == (4, 7)
        v = rng.normal(size=4).astype(np.float32)
        logits = score_all(v[None], w)[0]
        for i in range(7):
            assert logits[i] == pytest.approx(float(v @ index[i]), abs=1e-6)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="documents"):
            init_overdense(np.zeros((5, 4)), 6)

    def test_document_count_is_required(self):
        with pytest.raises(TypeError):
            init_overdense(np.zeros((5, 4)))

    def test_dimension_checked_at_model_construction(self):
        cfg = EncoderConfig(vocab_size=10, d_model=16, n_layers=1, n_heads=2, d_ff=16, max_len=8)
        enc = Encoder.init(cfg, 0)
        with pytest.raises(ValueError, match="d_model"):
            DocidRetriever(enc, np.zeros((8, 3), dtype=np.float32))


def _toy_training_setup(n_docs=10, seed=0):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(40)]
    texts = []
    for _ in range(n_docs):
        pool = rng.choice(40, size=8, replace=False)
        texts.append(" ".join(words[j] for j in rng.choice(pool, size=30)))
    corp = corpus_from_texts(texts)
    queries, qrels = [], {}
    for i in range(n_docs):
        distinct = sorted(set(corp.doc(i).tokens))
        picks = rng.choice(distinct, size=min(4, len(distinct)), replace=False)
        queries.append(Query(f"q{i}", [int(x) for x in picks]))
        qrels[f"q{i}"] = i
    enc_cfg = EncoderConfig(vocab_size=len(corp.vocab), d_model=32, n_layers=1,
                            n_heads=2, d_ff=64, max_len=32)
    return corp, queries, qrels, enc_cfg


class TestRunStage:
    # Losses are exact binary fractions, so `best - min_delta` has no rounding.
    @pytest.mark.parametrize("losses, patience, expected_epochs", [
        # every epoch improves by more than min_delta: all of them run
        ([8.0, 7.0, 6.0, 5.0, 4.0], 2, 5),
        # each epoch improves by min_delta or less: stale, yet it lowers best,
        # so epoch 2 is measured against 7.875 and does not improve on it
        ([8.0, 7.875, 7.625, 7.5, 7.0], 2, 3),
        # a rise, a recovery that resets the count, then two rises
        ([8.0, 9.0, 7.0, 6.0, 10.0, 11.0, 12.0], 2, 6),
        # patience 0 turns plateau stopping off: every epoch runs, stale or not
        ([8.0, 9.0, 10.0], 0, 3),
    ], ids=["steady", "small_steps", "rise_and_recover", "patience_0"])
    def test_plateau_stopping(self, losses, patience, expected_epochs):
        cfg = TrainConfig(plateau_patience=patience, plateau_min_delta=0.25)
        logs = run_stage(
            "scripted", {"w": np.zeros(1)},
            lambda epoch: [[epoch]],  # one batch of one item: the epoch number
            lambda batch: (losses[batch[0]], {"w": np.zeros(1)}),
            len(losses), cfg,
        )
        assert [(e.epoch, e.loss) for e in logs] == list(enumerate(losses[:expected_epochs]))


class TestTrainVanilla:
    def test_memorizes_training_queries(self):
        corp, queries, qrels, enc_cfg = _toy_training_setup()
        pairs = generate_pretrain_pairs(corp, window=16, m_samples=3, seed=0)
        tcfg = TrainConfig(lr=3e-3, batch_size=8, pretrain_epochs=10, finetune_epochs=40,
                           plateau_patience=5, plateau_min_delta=1e-5, seed=0)
        enc, w_doc, _ = train_vanilla(corp, pairs, queries, qrels, enc_cfg, tcfg)
        model = DocidRetriever(enc, w_doc)
        hits = sum(1 for q in queries if model.retrieve(q, 1).items[0][0] == qrels[q.qid])
        assert hits == len(queries)

    def test_rejects_pair_outside_corpus(self):
        corp, queries, qrels, enc_cfg = _toy_training_setup()
        bad = [TrainingPair([3, 4], 99, "passage")]
        with pytest.raises(ValueError, match="pretrain: pair targets docid 99 outside"):
            train_vanilla(corp, bad, queries, qrels, enc_cfg, TrainConfig())

    @pytest.mark.parametrize("stage, pretrain_epochs, finetune_epochs", [
        ("pretrain", 2, 0), ("finetune", 2, 3), ("finetune", 0, 3),
    ])
    def test_stage_without_pairs_fails_before_any_training(self, monkeypatch, stage,
                                                            pretrain_epochs, finetune_epochs):
        corp, queries, qrels, enc_cfg = _toy_training_setup()
        pairs = [] if stage == "pretrain" else generate_pretrain_pairs(corp, window=16, m_samples=1)
        calls = []

        def counting_forward_backward(*args, **kwargs):
            calls.append(len(args[2]))  # batch size
            return forward_backward(*args, **kwargs)

        monkeypatch.setattr(retriever, "forward_backward", counting_forward_backward)
        tcfg = TrainConfig(batch_size=8, pretrain_epochs=pretrain_epochs,
                           finetune_epochs=finetune_epochs, seed=0)
        with pytest.raises(ValueError) as err:
            train_vanilla(corp, pairs, queries, {}, enc_cfg, tcfg)  # {}: no labeled query
        assert calls == []
        assert re.match(f"{stage}: .* epochs requested but no pairs", str(err.value))

    def test_stage_of_0_epochs_needs_no_pairs(self):
        corp, queries, qrels, enc_cfg = _toy_training_setup()
        tcfg = TrainConfig(batch_size=8, pretrain_epochs=0, finetune_epochs=0, seed=0)
        enc, w_doc, logs = train_vanilla(corp, [], queries, {}, enc_cfg, tcfg)
        assert logs == [] and w_doc.shape == (enc_cfg.d_model, len(corp))

    def test_logs_pretraining_then_finetuning_epochs(self):
        corp, queries, qrels, enc_cfg = _toy_training_setup()
        pairs = generate_pretrain_pairs(corp, window=16, m_samples=1, seed=0)
        tcfg = TrainConfig(batch_size=8, pretrain_epochs=2, finetune_epochs=3,
                           plateau_patience=0, seed=0)
        _, _, logs = train_vanilla(corp, pairs, queries, qrels, enc_cfg, tcfg)
        assert [(e.stage, e.epoch) for e in logs] == [
            ("pretrain", 0), ("pretrain", 1), ("finetune", 0), ("finetune", 1), ("finetune", 2)]

    def test_deterministic_given_seed(self):
        corp, queries, qrels, enc_cfg = _toy_training_setup()
        pairs = generate_pretrain_pairs(corp, window=16, m_samples=2, seed=0)
        tcfg = TrainConfig(lr=1e-3, batch_size=8, pretrain_epochs=2, finetune_epochs=2, seed=9)
        enc_a, w_a, _ = train_vanilla(corp, pairs, queries, qrels, enc_cfg, tcfg)
        enc_b, w_b, _ = train_vanilla(corp, pairs, queries, qrels, enc_cfg, tcfg)
        assert np.array_equal(w_a, w_b)
        for k in enc_a.params:
            assert np.array_equal(enc_a.params[k], enc_b.params[k])


class TestTrainOverdense:
    def _dense_setup(self):
        corp, queries, qrels, enc_cfg = _toy_training_setup(seed=4)
        tower = Encoder.init(enc_cfg, 11)
        rng = np.random.default_rng(12)
        index = rng.normal(0, 0.5, size=(len(corp), enc_cfg.d_model)).astype(np.float32)
        return corp, queries, qrels, tower, index

    def test_zero_steps_matches_dense_scores_exactly(self):
        corp, queries, qrels, tower, index = self._dense_setup()
        enc, w_doc, logs = train_overdense(corp, index, tower, queries, qrels,
                                           TrainConfig(finetune_epochs=0))
        assert logs == []
        model = DocidRetriever(enc, w_doc)
        for q in queries:
            v = tower.encode(q.tokens)
            expected = as_pairs(*top_k(v @ init_overdense(index, len(corp)), 5))
            assert model.retrieve(q, 5).items == expected

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_rejects_dense_index_of_other_width(self, epochs):
        corp, queries, qrels, tower, _ = self._dense_setup()
        d = tower.cfg.d_model
        wide = np.zeros((len(corp), d + 8), dtype=np.float32)
        tcfg = TrainConfig(batch_size=8, finetune_epochs=epochs, seed=0)
        with pytest.raises(ValueError, match=f"width {d + 8} but the query tower's d_model is {d}"):
            train_overdense(corp, wide, tower, queries, qrels, tcfg)

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_rejects_dense_index_of_other_dtype(self, epochs):
        corp, queries, qrels, tower, index = self._dense_setup()
        tcfg = TrainConfig(batch_size=8, finetune_epochs=epochs, seed=0)
        with pytest.raises(ValueError, match="vectors are float64 but the query tower is float32"):
            train_overdense(corp, index.astype(np.float64), tower, queries, qrels, tcfg)

    def test_finetune_without_labeled_queries_rejected(self):
        corp, queries, qrels, tower, index = self._dense_setup()
        with pytest.raises(ValueError, match="^finetune: 2 epochs requested but no pairs"):
            train_overdense(corp, index, tower, queries, {}, TrainConfig(finetune_epochs=2))

    def test_finetune_decreases_training_loss(self):
        corp, queries, qrels, tower, index = self._dense_setup()
        tcfg = TrainConfig(lr=3e-3, batch_size=8, finetune_epochs=3,
                           plateau_patience=10, seed=0)
        _, _, logs = train_overdense(corp, index, tower, queries, qrels, tcfg)
        assert logs[-1].loss < logs[0].loss

    def test_freeze_encoder_leaves_encoder_unchanged(self):
        corp, queries, qrels, tower, index = self._dense_setup()
        before = {k: v.copy() for k, v in tower.params.items()}
        tcfg = TrainConfig(lr=3e-3, batch_size=8, finetune_epochs=2, freeze_encoder=True, seed=0)
        enc, w_doc, _ = train_overdense(corp, index, tower, queries, qrels, tcfg)
        for k in before:
            assert np.array_equal(enc.params[k], before[k])
        assert not np.array_equal(w_doc, init_overdense(index, len(corp)))

    def test_does_not_mutate_the_given_tower(self):
        corp, queries, qrels, tower, index = self._dense_setup()
        before = {k: v.copy() for k, v in tower.params.items()}
        tcfg = TrainConfig(lr=3e-3, batch_size=8, finetune_epochs=2, seed=0)
        train_overdense(corp, index, tower, queries, qrels, tcfg)
        for k in before:
            assert np.array_equal(tower.params[k], before[k])

    def test_does_not_mutate_a_transposed_docid_matrix(self):
        # a pin: train-overdense passes the dense model's docid matrix as
        # w_doc.T, a transposed view whose .T is the caller's own array;
        # fine-tuning must train a copy of it
        corp, queries, qrels, tower, index = self._dense_setup()
        w = init_overdense(index, len(corp))
        before = w.copy()
        tcfg = TrainConfig(lr=3e-3, batch_size=8, finetune_epochs=2, seed=0)
        _, w_doc, _ = train_overdense(corp, w.T, tower, queries, qrels, tcfg)
        assert np.array_equal(w, before)
        assert not np.array_equal(w_doc, before)
