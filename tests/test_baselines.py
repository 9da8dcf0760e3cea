import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paramdex.baselines import (
    bm25_retrieve,
    bm25_score,
    build_inverted_index,
    dense_encode_corpus,
    train_two_tower,
    two_tower_step,
)
from paramdex.corpus import UNK_ID, Query
from paramdex.nn import Encoder, EncoderConfig, finite_diff_check, softmax_xent
from paramdex.pairs import TrainingPair
from paramdex.retriever import DocidRetriever, init_overdense, train_overdense
from paramdex.training import TrainConfig

from conftest import corpus_from_texts


def _bm25_oracle(corpus, query_tokens, docid, k1=1.2, b=0.75):
    """Direct-formula reference: naive recounts, no index machinery."""
    n = len(corpus)
    doc = corpus.doc(docid).tokens
    dl = len(doc)
    avgdl = sum(len(d.tokens) for d in corpus.docs) / n
    score = 0.0
    for t in set(query_tokens):
        tf = sum(1 for x in doc if x == t)
        if tf == 0:
            continue
        df = sum(1 for d in corpus.docs if t in d.tokens)
        idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
        score += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))
    return score


def _postings(index, token):
    """[(docid, tf)] of one token, read from the CSR arrays."""
    s = index.span(token)
    return list(zip(index.docids[s].tolist(), index.tf[s].tolist()))


class TestInvertedIndex:
    def test_single_doc_postings(self):
        corp = corpus_from_texts(["a a b"])
        index = build_inverted_index(corp)
        a, b = corp.vocab.lookup("a"), corp.vocab.lookup("b")
        assert _postings(index, a) == [(0, 2)]
        assert _postings(index, b) == [(0, 1)]
        assert index.avgdl == 3.0

    def test_absent_token_has_empty_postings(self):
        corp = corpus_from_texts(["a b"])
        index = build_inverted_index(corp)
        assert _postings(index, 9999) == []

    def test_counts_match_naive_recount(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(30)]
        texts = [" ".join(rng.choice(words, size=rng.integers(5, 40))) for _ in range(50)]
        corp = corpus_from_texts(texts)
        index = build_inverted_index(corp)
        for t in range(3, len(corp.vocab)):
            expected_df = sum(1 for d in corp.docs if t in d.tokens)
            assert len(_postings(index, t)) == expected_df
            docids = [d for d, _ in _postings(index, t)]
            assert docids == sorted(docids)
            for docid, tf in _postings(index, t):
                assert tf == sum(1 for x in corp.doc(docid).tokens if x == t)

    def test_unk_is_not_indexed(self):
        corp = corpus_from_texts(["a b", "c"])
        doc = corp.doc(0)
        doc.tokens.append(UNK_ID)
        index = build_inverted_index(corp)
        assert _postings(index, UNK_ID) == []
        assert index.doc_len[0] == 3  # UNK still counts toward the document length

    def test_weights_equal_bm25_score_bit_for_bit(self):
        # build-time weights (vectorized) vs bm25_score's scalar recomputation
        rng = np.random.default_rng(2)
        words = [f"w{i}" for i in range(40)]
        texts = [" ".join(rng.choice(words, size=rng.integers(3, 30))) for _ in range(80)]
        corp = corpus_from_texts(texts)
        index = build_inverted_index(corp)
        for t in range(3, len(corp.vocab)):
            s = index.span(t)
            for docid, w in zip(index.docids[s].tolist(), index.weights[s].tolist()):
                assert w == bm25_score(index, [t], docid)

    def test_bm25_score_does_not_read_the_weights(self):
        corp = corpus_from_texts(["apple pie", "apple cake", "banana split"])
        index = build_inverted_index(corp)
        q = [corp.vocab.lookup("apple"), corp.vocab.lookup("pie")]
        before = bm25_score(index, q, 0)
        index.weights[:] = 0.0
        assert bm25_score(index, q, 0) == before > 0.0


class TestBM25Score:
    def test_no_shared_terms_scores_zero(self):
        corp = corpus_from_texts(["alpha beta", "gamma delta"])
        index = build_inverted_index(corp)
        q = [corp.vocab.lookup("gamma")]
        assert bm25_score(index, q, 0) == 0.0

    def test_single_doc_single_term_hand_value(self):
        corp = corpus_from_texts(["term other filler"])
        index = build_inverted_index(corp)
        score = bm25_score(index, [corp.vocab.lookup("term")], 0)
        assert score == pytest.approx(math.log(1 + 0.5 / 1.5), abs=1e-9)
        assert score == pytest.approx(0.287682, abs=1e-6)

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(25)]
        texts = [" ".join(rng.choice(words, size=rng.integers(4, 30))) for _ in range(20)]
        corp = corpus_from_texts(texts)
        index = build_inverted_index(corp)
        for _ in range(30):
            q = list(rng.integers(3, len(corp.vocab), size=4))
            docid = int(rng.integers(0, 20))
            assert bm25_score(index, q, docid) == pytest.approx(
                _bm25_oracle(corp, q, docid), abs=1e-9
            )

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(6)
        corp = corpus_from_texts([" ".join(f"w{rng.integers(8)}" for _ in range(10))
                                  for _ in range(15)])
        index = build_inverted_index(corp)
        for docid in range(15):
            q = list(rng.integers(3, len(corp.vocab), size=3))
            assert bm25_score(index, q, docid) >= 0.0


class TestBM25Retrieve:
    def test_single_matching_doc(self):
        corp = corpus_from_texts(["unique word", "other text"])
        index = build_inverted_index(corp)
        out = bm25_retrieve(index, Query("q", [corp.vocab.lookup("unique")]), 5)
        assert [d for d, _ in out.items] == [0]

    def test_k_larger_than_matches_gives_shorter_list(self):
        corp = corpus_from_texts(["apple pie", "apple cake", "banana split"])
        index = build_inverted_index(corp)
        out = bm25_retrieve(index, Query("q", [corp.vocab.lookup("apple")]), 10)
        assert len(out.items) == 2

    def test_k_nonpositive(self):
        corp = corpus_from_texts(["a b"])
        with pytest.raises(ValueError):
            bm25_retrieve(build_inverted_index(corp), Query("q", []), 0)

    def test_matches_exhaustive_oracle_on_200_docs(self):
        rng = np.random.default_rng(9)
        words = [f"w{i}" for i in range(40)]
        texts = [" ".join(rng.choice(words, size=rng.integers(5, 25))) for _ in range(200)]
        corp = corpus_from_texts(texts)
        index = build_inverted_index(corp)
        absent = len(corp.vocab) + 5  # outside the vocabulary: matches nothing
        queries = [list(rng.integers(3, len(corp.vocab), size=3)) for _ in range(10)]
        queries += [[3, 3, 3, UNK_ID], [UNK_ID], [absent], [], [4, absent, 4]]
        for tokens in queries:
            scores = [(_bm25_oracle(corp, tokens, d), d) for d in range(200)]
            expected = [(d, s) for s, d in sorted(((s, d) for s, d in scores if s > 0),
                                                  key=lambda e: (-e[0], e[1]))]
            for k in (1, 20, 200):
                got = bm25_retrieve(index, Query("q", tokens), k)
                assert [d for d, _ in got.items] == [d for d, _ in expected[:k]]
                for (_, s_got), (_, s_exp) in zip(got.items, expected):
                    assert s_got == pytest.approx(s_exp, abs=1e-9)

    def test_disjoint_document_does_not_disturb_rankings(self):
        base = ["apple pie tart", "apple cake", "fruit salad apple"]
        corp_a = corpus_from_texts(base)
        corp_b = corpus_from_texts(base + ["zz yy xx"])
        q_tokens = ["apple", "pie"]
        qa = Query("q", [corp_a.vocab.lookup(t) for t in q_tokens])
        qb = Query("q", [corp_b.vocab.lookup(t) for t in q_tokens])
        # note: avgdl shifts, so compare order not raw scores
        ia, ib = build_inverted_index(corp_a), build_inverted_index(corp_b)
        order_a = [corp_a.external_id(d) for d, _ in bm25_retrieve(ia, qa, 10).items]
        order_b = [corp_b.external_id(d) for d, _ in bm25_retrieve(ib, qb, 10).items]
        assert order_a == order_b


ENC_CFG = EncoderConfig(vocab_size=40, d_model=16, n_layers=1, n_heads=2, d_ff=32, max_len=24)


def _two_tower_data(n=16, seed=0):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(30)]
    texts = []
    for _ in range(n):
        pool = rng.choice(30, size=6, replace=False)
        texts.append(" ".join(words[j] for j in rng.choice(pool, size=20)))
    corp = corpus_from_texts(texts)
    queries, qrels = [], {}
    for i in range(n):
        distinct = sorted(set(corp.doc(i).tokens))
        picks = rng.choice(distinct, size=min(3, len(distinct)), replace=False)
        queries.append(Query(f"q{i}", [int(x) for x in picks]))
        qrels[f"q{i}"] = i
    cfg = EncoderConfig(vocab_size=len(corp.vocab), d_model=16, n_layers=1,
                        n_heads=2, d_ff=32, max_len=24)
    return corp, queries, qrels, cfg


class TestTwoTower:
    def test_loss_decreases_on_learnable_data(self):
        corp, queries, qrels, cfg = _two_tower_data()
        tcfg = TrainConfig(lr=3e-3, batch_size=8, finetune_epochs=4, plateau_patience=10, seed=0)
        _, _, logs = train_two_tower(corp, queries, qrels, cfg, tcfg)
        assert logs[-1].loss < logs[0].loss

    def test_in_batch_loss_covers_whole_batch(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(6, 8)).astype(np.float32)
        d = rng.normal(size=(6, 8)).astype(np.float32)
        loss, dscores = softmax_xent(q @ d.T, np.arange(6))
        assert dscores.shape == (6, 6)
        assert math.isfinite(loss)
        # rows of the softmax gradient sum to zero
        np.testing.assert_allclose(dscores.sum(axis=1), 0.0, atol=1e-7)

    def test_batch_size_one_rejected(self):
        corp, queries, qrels, cfg = _two_tower_data()
        with pytest.raises(ValueError, match="batch_size >= 2"):
            train_two_tower(corp, queries, qrels, cfg, TrainConfig(batch_size=1))

    def test_identical_text_wins_its_batch_row(self):
        # frozen random shared tower: when query text == doc text, the matching
        # dot product should top its row far more often than chance
        rng = np.random.default_rng(3)
        enc = Encoder.init(ENC_CFG, 1)
        wins = trials = 0
        for _ in range(100):
            seqs = [list(rng.integers(3, 40, size=6)) for _ in range(8)]
            vecs, _ = enc.forward_batch(seqs, need_cache=False)
            scores = vecs @ vecs.T
            wins += int(np.argmax(scores[0]) == 0)
            trials += 1
        assert wins / trials > 0.9  # chance would be 1/8

    def test_shared_towers_share_parameters(self):
        corp, queries, qrels, cfg = _two_tower_data()
        tcfg = TrainConfig(lr=1e-3, batch_size=8, finetune_epochs=1, seed=0)
        q_enc, d_enc, _ = train_two_tower(corp, queries, qrels, cfg, tcfg)
        assert q_enc is d_enc
        tcfg = TrainConfig(lr=1e-3, batch_size=8, finetune_epochs=1, seed=0, separate_towers=True)
        q2, d2, _ = train_two_tower(corp, queries, qrels, cfg, tcfg)
        assert q2 is not d2
        assert not np.array_equal(q2.params["tok_emb"], d2.params["tok_emb"])

    def test_shared_tower_gradients_match_finite_differences(self):
        _check_step_gradients(separate=False)

    def test_separate_tower_gradients_match_finite_differences(self):
        _check_step_gradients(separate=True)

    def test_document_tower_encodes_a_repeated_positive_once(self, monkeypatch):
        corp, queries, _, cfg = _two_tower_data()
        qrels = {q.qid: 5 for q in queries[:8]}
        seen = []
        forward_batch = Encoder.forward_batch

        def counting(self, seqs, need_cache=True):
            seen.append(len(seqs))
            return forward_batch(self, seqs, need_cache)

        monkeypatch.setattr(Encoder, "forward_batch", counting)
        train_two_tower(corp, queries[:8], qrels, cfg,
                        TrainConfig(batch_size=8, finetune_epochs=1, seed=0))
        assert seen == [1, 8]  # the one distinct positive, then the queries

    @pytest.mark.parametrize("target", [-1, 16])  # _two_tower_data has 16 documents
    def test_target_outside_the_corpus_rejected_before_any_encoding(self, monkeypatch, target):
        corp, queries, qrels, cfg = _two_tower_data()
        qrels = {**qrels, queries[3].qid: target}
        seen = []
        monkeypatch.setattr(Encoder, "forward_batch", lambda self, seqs, need_cache=True: seen.append(seqs))
        with pytest.raises(ValueError, match=rf"^two_tower: pair targets docid {target} "
                                             rf"outside corpus of size {len(corp)}$"):
            train_two_tower(corp, queries, qrels, cfg, TrainConfig(batch_size=8, finetune_epochs=1, seed=0))
        assert seen == []

    @pytest.mark.parametrize("separate", [False, True])
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_step_equals_per_row_reference(self, separate, data):
        n_docs = len(_STEP_CORPUS)
        targets = data.draw(st.lists(st.integers(0, n_docs - 1), min_size=2, max_size=9))
        lens = data.draw(st.lists(st.integers(1, 9), min_size=len(targets), max_size=len(targets)))
        rng = np.random.default_rng(len(targets))
        batch = [TrainingPair(list(rng.integers(3, len(_STEP_CORPUS.vocab), size=n)), t, "query")
                 for n, t in zip(lens, targets)]
        for dtype in (np.float32, np.float64):
            q_enc, d_enc = _step_towers(dtype, separate, seed=len(targets))
            loss, grads = two_tower_step(q_enc, d_enc, _STEP_CORPUS, batch, {})
            ref_loss, ref_grads = _per_row_step(q_enc, d_enc, _STEP_CORPUS, batch)
            assert loss == ref_loss
            assert grads.keys() == ref_grads.keys()
            if dtype == np.float64:
                # summing a repeated document's copies before its backward pass
                # reorders additions: float64 rounding, ~1e-16 of the order-one
                # terms, which is all there is where the terms cancel exactly
                # (every row of a batch sharing one positive)
                for k, g in ref_grads.items():
                    np.testing.assert_allclose(grads[k], g, rtol=1e-10, atol=1e-12, err_msg=k)


# documents of 1-14 tokens: four length groups in the document tower
_STEP_CORPUS = corpus_from_texts([
    "a b c", "a a d e f g", "b c d e f g h i j k", "c", "d e f g h i j k l m n o p q",
    "e f g h i j", "a b c d e f g h i j k l m",
])


def _step_towers(dtype, separate, seed):
    """Query and document towers over _STEP_CORPUS; d_enc is q_enc unless separate."""
    cfg = EncoderConfig(vocab_size=len(_STEP_CORPUS.vocab), d_model=8, n_layers=2, n_heads=2,
                        d_ff=16, max_len=12)
    rng = np.random.default_rng(seed)
    q_enc = Encoder.init(cfg, rng, dtype=dtype)
    return q_enc, (Encoder.init(cfg, rng, dtype=dtype) if separate else q_enc)


def _check_step_gradients(separate):
    # positives 0 and 2 repeat: their copies' gradients are summed
    q_enc, d_enc = _step_towers(np.float64, separate, seed=8)
    rng = np.random.default_rng(8)
    batch = [TrainingPair(list(rng.integers(3, len(_STEP_CORPUS.vocab), size=4)), t, "query")
             for t in (0, 1, 0, 2, 0)]
    towers = {"q.": q_enc, "d.": d_enc} if separate else {"q.": q_enc}
    params = {p + k: v for p, enc in towers.items() for k, v in enc.params.items()}

    def fn(params):
        q, d = (Encoder(q_enc.cfg, {k[2:]: v for k, v in params.items() if k.startswith(p)})
                for p in ("q.", "d."))
        return two_tower_step(q, d if separate else q, _STEP_CORPUS, batch, {})

    worst, _ = finite_diff_check(fn, params, eps=1e-4, max_coords_per_param=3,
                                 rng=np.random.default_rng(1))
    assert worst < 1e-4


def _per_row_step(q_enc, d_enc, corpus, batch):
    """Reference step: one document-tower row per batch row, repeats included."""
    q_vec, q_cache = q_enc.forward_batch([p.tokens for p in batch])
    d_vec, d_cache = d_enc.forward_batch([corpus.doc(p.target).tokens for p in batch])
    loss, dscores = softmax_xent(q_vec @ d_vec.T, np.arange(len(batch)))
    gq = q_enc.backward_batch(q_cache, dscores @ d_vec)
    gd = d_enc.backward_batch(d_cache, dscores.T @ q_vec)
    if d_enc is not q_enc:
        return loss, {**{"q." + k: v for k, v in gq.items()}, **{"d." + k: v for k, v in gd.items()}}
    return loss, {"q." + k: gq[k] + gd[k] for k in gq}


class TestDenseIndex:
    def test_encode_corpus_shape_and_determinism(self):
        corp, _, _, cfg = _two_tower_data()
        enc = Encoder.init(cfg, 2)
        index = dense_encode_corpus(enc, corp, batch_size=5)
        assert index.shape == (len(corp), cfg.d_model)
        assert index.dtype == np.float32
        assert np.array_equal(index, dense_encode_corpus(enc, corp, batch_size=5))

    def test_float64_towers_can_be_fine_tuned(self):
        corp, queries, qrels, cfg = _two_tower_data()
        enc = Encoder.init(cfg, 2, dtype=np.float64)
        index = dense_encode_corpus(enc, corp, batch_size=5)
        assert index.dtype == np.float64
        tuned, w_doc, logs = train_overdense(corp, index, enc, queries, qrels,
                                             TrainConfig(batch_size=8, finetune_epochs=1, seed=0))
        assert w_doc.dtype == np.float64 and tuned.dtype == np.float64
        assert [log.stage for log in logs] == ["finetune"]

    def test_identical_documents_get_identical_rows(self):
        corp = corpus_from_texts(["same words here", "same words here", "different text"])
        cfg = EncoderConfig(vocab_size=len(corp.vocab), d_model=16, n_layers=1,
                            n_heads=2, d_ff=32, max_len=16)
        index = dense_encode_corpus(Encoder.init(cfg, 0), corp, batch_size=3)
        assert np.array_equal(index[0], index[1])
        assert not np.array_equal(index[0], index[2])


class TestDenseRetrieve:
    def test_one_hot_rows(self):
        corp, _, _, cfg = _two_tower_data()
        enc = Encoder.init(cfg, 0)
        index = np.zeros((2, cfg.d_model), dtype=np.float32)
        index[0, 0] = 1.0
        index[1, 1] = 1.0
        q = Query("q", [3, 4])
        v = enc.encode(q.tokens)
        out = DocidRetriever(enc, init_overdense(index, 2)).retrieve(q, 2)
        expected_first = 0 if v[0] >= v[1] else 1
        assert out.items[0][0] == expected_first

    def test_scores_equal_matrix_vector_oracle(self):
        corp, queries, _, cfg = _two_tower_data()
        enc = Encoder.init(cfg, 4)
        index = np.random.default_rng(5).normal(size=(len(corp), cfg.d_model)).astype(np.float32)
        r = DocidRetriever(enc, init_overdense(index, len(corp)))
        for q in queries[:5]:
            v = enc.encode(q.tokens)
            got = dict(r.retrieve(q, len(corp)).items)
            for i in range(len(corp)):
                expected = float(np.float32(sum(np.float64(v) * np.float64(index[i]))))
                assert got[i] == pytest.approx(expected, abs=1e-5)

    def test_k_nonpositive(self):
        corp, queries, _, cfg = _two_tower_data()
        enc = Encoder.init(cfg, 0)
        index = np.zeros((len(corp), cfg.d_model), dtype=np.float32)
        with pytest.raises(ValueError):
            DocidRetriever(enc, init_overdense(index, len(corp))).retrieve(queries[0], 0)
