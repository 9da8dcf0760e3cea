import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paramdex.corpus import Query
from paramdex.distributed import (
    ShardRun,
    mean_spread_ratio,
    merge_runs,
    partition,
    read_manifest,
    render_stats_csv,
    score_distribution_stats,
    shard_retrieve,
    split_corpus,
    write_manifest,
)
from paramdex.nn import Encoder, EncoderConfig
from paramdex.retriever import DocidRetriever
from paramdex.runfiles import write_run

from conftest import corpus_from_texts, merged_items, ranked_list


class TestPartition:
    def test_single_group(self):
        plan = partition(10, 1)
        assert plan.n_groups == 1 and np.all(plan.group_of == 0)

    def test_balanced_sizes(self):
        plan = partition(10, 3, seed=5)
        assert sorted(len(g) for g in plan.groups) == [3, 3, 4]

    def test_deterministic(self):
        a = partition(50, 4, seed=9)
        b = partition(50, 4, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a.groups, b.groups))

    def test_nonpositive_group_count(self):
        with pytest.raises(ValueError, match="positive"):
            partition(10, 0)

    @pytest.mark.parametrize("n_docs", [1, 2, 7, 10, 37])
    def test_groups_are_runs_of_the_seeded_permutation(self, n_docs):
        # oracle: cut the permutation into g runs, the first n_docs % g one longer
        for g in range(1, n_docs + 1):
            for seed in (0, 5):
                perm = np.random.default_rng(seed).permutation(n_docs)
                base, extra = divmod(n_docs, g)
                bounds = np.cumsum([0] + [base + (i < extra) for i in range(g)])
                plan = partition(n_docs, g, seed)
                for gid in range(g):
                    members = np.sort(perm[bounds[gid] : bounds[gid + 1]])
                    assert np.array_equal(plan.groups[gid], members)
                    assert np.all(plan.group_of[members] == gid)

    def test_more_groups_than_documents(self):
        with pytest.raises(ValueError, match="cannot split 3 documents into 4 groups"):
            partition(3, 4)

    def test_is_a_bijection(self):
        plan = partition(37, 5, seed=1)
        seen = np.concatenate(plan.groups)
        assert sorted(seen.tolist()) == list(range(37))
        for gid, members in enumerate(plan.groups):
            assert np.all(plan.group_of[members] == gid)


def _sharded_setup(n_docs=30, g=3, seed=0):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(words, size=15)) for _ in range(n_docs)]
    corp = corpus_from_texts(texts)
    cfg = EncoderConfig(vocab_size=len(corp.vocab), d_model=16, n_layers=1,
                        n_heads=2, d_ff=32, max_len=20)
    enc = Encoder.init(cfg, 3)
    w_full = rng.normal(0, 0.5, size=(cfg.d_model, n_docs)).astype(np.float32)
    plan = partition(n_docs, g, seed=7)
    # per-group models that slice the SAME docid matrix: scores match the
    # unsharded model exactly
    models = [
        DocidRetriever(enc, np.ascontiguousarray(w_full[:, members]))
        for members in plan.groups
    ]
    full = DocidRetriever(enc, w_full)
    return corp, enc, full, models, plan


class TestShardRetrieve:
    def test_single_group_equals_unsharded(self):
        corp, enc, full, _, _ = _sharded_setup()
        plan1 = partition(len(corp), 1)
        runs = shard_retrieve([full], plan1, Query("q", [3, 5]), per_group_k=10)
        assert len(runs) == 1
        assert runs[0].ranked.items == full.retrieve(Query("q", [3, 5]), 10).items

    def test_docids_belong_to_their_group(self):
        corp, enc, full, models, plan = _sharded_setup()
        runs = shard_retrieve(models, plan, Query("q", [4, 6]), per_group_k=5)
        for r in runs:
            for d, _ in r.ranked.items:
                assert plan.group_of[d] == r.group

    def test_full_depth_union_covers_corpus(self):
        corp, enc, full, models, plan = _sharded_setup()
        runs = shard_retrieve(models, plan, Query("q", [4]), per_group_k=len(corp))
        union = {d for r in runs for d, _ in r.ranked.items}
        assert union == set(range(len(corp)))


class TestMerge:
    def test_single_shard_is_identity_truncated(self):
        items = [(4, 3.0), (1, 2.0), (9, 1.0)]
        run = ShardRun(0, ranked_list("q", items))
        assert merge_runs([run], 2).items == items[:2]

    def test_same_model_shards_merge_to_global_topk(self):
        corp, enc, full, models, plan = _sharded_setup()
        for qtoks in ([3, 5], [8], [4, 9, 11]):
            q = Query("q", qtoks)
            runs = shard_retrieve(models, plan, q, per_group_k=len(corp))
            for k in (1, 3, 10, 30):
                merged = merge_runs(runs, k)
                assert merged.items == full.retrieve(q, k).items

    def test_shifted_scale_dominates_raw_but_not_zscore(self):
        rng = np.random.default_rng(0)
        # two shards over disjoint docids; shard B's scores sit +5 higher
        a = sorted(((i, float(s)) for i, s in enumerate(rng.normal(0, 1, 50))),
                   key=lambda e: -e[1])
        b = sorted(((100 + i, float(s) + 5.0) for i, s in enumerate(rng.normal(0, 1, 50))),
                   key=lambda e: -e[1])
        raw = merged_items([a, b], 10, mode="raw")
        assert all(d >= 100 for d, _ in raw)
        z = merged_items([a, b], 10, mode="zscore")
        groups = {d >= 100 for d, _ in z}
        assert groups == {True, False}

    def test_zscore_invariant_to_affine_rescaling_of_one_shard(self):
        rng = np.random.default_rng(1)
        a = [(i, float(s)) for i, s in enumerate(rng.normal(0, 1, 20))]
        b = [(50 + i, float(s)) for i, s in enumerate(rng.normal(3, 2, 20))]
        base = merged_items([a, b], 15, mode="zscore")
        scaled = [(d, 7.0 * s + 11.0) for d, s in a]
        again = merged_items([scaled, b], 15, mode="zscore")
        assert [d for d, _ in base] == [d for d, _ in again]

    def test_empty_input(self):
        assert merge_runs([], 5).items == []

    def test_mixed_qids_rejected(self):
        r1 = ShardRun(0, ranked_list("q1", [(0, 1.0)]))
        r2 = ShardRun(1, ranked_list("q2", [(1, 1.0)]))
        with pytest.raises(ValueError, match="mix"):
            merge_runs([r1, r2], 5)

    def test_duplicate_docid_keeps_best_score(self):
        out = merged_items([[(3, 1.0)], [(3, 2.0)]], 5)
        assert out == [(3, 2.0)]

    @pytest.mark.parametrize("first,second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zero_tie_keeps_the_first_lists_score(self, tmp_path, first, second):
        # 0.0 == -0.0, so only the written text shows which entry the merge kept
        runs = [ShardRun(0, ranked_list("q", [(7, 1.0), (3, first)])),
                ShardRun(1, ranked_list("q", [(3, second), (5, -1.0)]))]
        path = tmp_path / "merged.run"
        write_run(path, [merge_runs(runs, 5)], lambda d: f"d{d}", tag="t")
        assert path.read_text() == (f"q Q0 d7 1 1.000000 t\nq Q0 d3 2 {first:.6f} t\n"
                                    "q Q0 d5 3 -1.000000 t\n")

    def test_merge_length_bound(self):
        lists = [[(0, 1.0), (1, 0.5)], [(2, 0.7)]]
        assert len(merged_items(lists, 10)) == 3
        assert len(merged_items(lists, 2)) == 2

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            merged_items([[(0, 1.0)]], 1, mode="softmax")

    @pytest.mark.parametrize("mode", ["raw", "zscore"])
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        lists=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 15),
                    st.one_of(st.sampled_from([-1.0, 0.0, 0.25, 2.0]),
                              st.floats(-1e6, 1e6, allow_nan=False)),
                ),
                max_size=12,
            ),
            max_size=5,
        ),
        k=st.integers(1, 20),
    )
    def test_raw_merge_matches_reference(self, mode, lists, k):
        ref_lists = lists
        if mode == "zscore":  # standardize each list as the merge always has
            ref_lists = []
            for entries in filter(None, lists):
                scores = np.array([s for _, s in entries], dtype=np.float64)
                mean, std = float(scores.mean()), float(scores.std())
                std = std if std >= 1e-12 else 1.0
                ref_lists.append([(d, (s - mean) / std) for d, s in entries])
        flat = [e for entries in ref_lists for e in entries]
        docids = sorted({d for d, _ in flat})
        best = [max(s for d2, s in flat if d2 == d) for d in docids]
        order = np.lexsort((np.array(docids, dtype=np.int64), -np.array(best, dtype=np.float64)))
        expected = [(docids[i], best[i]) for i in order[:k]]
        assert merged_items(lists, k, mode=mode) == expected


class TestScoreStats:
    def test_constant_scores_have_zero_std(self):
        rows = score_distribution_stats([np.array([2.0, 2.0])])
        assert rows[0]["std"] == 0.0 and rows[0]["mean"] == 2.0

    def test_same_distribution_means_close(self):
        rng = np.random.default_rng(2)
        rows = score_distribution_stats([rng.normal(0, 1, 20 * 50) for _ in range(3)])
        means = [r["mean"] for r in rows]
        assert max(means) - min(means) < 0.2
        assert mean_spread_ratio(rows) < 0.5

    def test_shifted_group_is_visible(self):
        rng = np.random.default_rng(3)
        rows = score_distribution_stats([rng.normal(0.0, 1, 200), rng.normal(4.0, 1, 200)])
        assert mean_spread_ratio(rows) > 2.0

    def test_csv_rendering(self):
        csv = render_stats_csv(score_distribution_stats([np.arange(10.0)]))
        lines = csv.strip().split("\n")
        assert lines[0] == "group,mean,std,min,max,d1,d2,d3,d4,d5,d6,d7,d8,d9"
        assert lines[1].startswith("0,4.500000")

    @pytest.mark.parametrize("groups, error", [
        ([], "no shard runs given"),
        ([np.ones(3), np.array([])], "group 1 returned no scores"),
    ])
    def test_no_group_or_empty_group_rejected(self, groups, error):
        with pytest.raises(ValueError, match=error):
            score_distribution_stats(groups)


def test_split_corpus_localizes_qrels():
    corp = corpus_from_texts([f"w{i} shared" for i in range(12)])
    plan = partition(12, 3, seed=0)
    qrels = {f"q{i}": i for i in range(12)}
    parts = split_corpus(corp, plan, qrels)
    assert sum(len(q) for _, q in parts) == 12
    for gid, (sub, sub_qrels) in enumerate(parts):
        assert len(sub) == len(plan.groups[gid])
        for qid, local in sub_qrels.items():
            assert sub.external_id(local) == corp.external_id(qrels[qid])


def test_manifest_roundtrip(tmp_path):
    corp = corpus_from_texts([f"w{i} shared" for i in range(11)])
    plan = partition(11, 4, seed=3)
    path = tmp_path / "shards.tsv"
    write_manifest(path, plan, corp)
    loaded = read_manifest(path, corp)
    assert loaded.n_groups == 4 and loaded.seed == 3
    assert all(np.array_equal(a, b) for a, b in zip(loaded.groups, plan.groups))


_MANIFEST_CORPUS = corpus_from_texts([f"w{i}" for i in range(40)])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_manifest_roundtrip_property(tmp_path_factory, data):
    n = data.draw(st.integers(1, 40), label="n_docs")
    g = data.draw(st.integers(1, n), label="groups")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    corp = _MANIFEST_CORPUS.take(range(n))[0]
    plan = partition(n, g, seed)
    path = tmp_path_factory.mktemp("manifest") / "shards.tsv"
    write_manifest(path, plan, corp)
    loaded = read_manifest(path, corp)
    assert (loaded.n_groups, loaded.seed) == (g, seed)
    assert np.array_equal(loaded.group_of, plan.group_of)
    assert len(loaded.groups) == g
    assert all(np.array_equal(a, b) for a, b in zip(loaded.groups, plan.groups))


@pytest.mark.parametrize("bad_gid", ["7", "2", "-1"])
def test_manifest_group_id_outside_range_rejected(tmp_path, bad_gid):
    corp = corpus_from_texts([f"w{i} shared" for i in range(10)])
    path = tmp_path / "shards.tsv"
    write_manifest(path, partition(10, 2, seed=0), corp)
    lines = path.read_text().splitlines(keepends=True)
    gid, ext = lines[3].split("\t")
    lines[3] = f"{bad_gid}\t{ext}"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=rf"line 4: group id {bad_gid} outside \[0, 2\)"):
        read_manifest(path, corp)


def _edited_manifest(tmp_path, edit):
    """A valid manifest of 10 documents in 2 groups, its lines passed through
    edit (a list -> list function), and the corpus it is for."""
    corp = corpus_from_texts([f"w{i} shared" for i in range(10)])
    path = tmp_path / "shards.tsv"
    write_manifest(path, partition(10, 2, seed=0), corp)
    path.write_text("".join(line + "\n" for line in edit(path.read_text().splitlines())))
    return path, corp


@pytest.mark.parametrize("header", ["# g=2", "# g=two seed=0", "# g=2 seed", "g=2 seed=0"])
def test_manifest_bad_header_rejected_naming_line_1(tmp_path, header):
    path, corp = _edited_manifest(tmp_path, lambda lines: [header, *lines[1:]])
    with pytest.raises(ValueError, match=r"shards.tsv line 1: expected the header '# g=<g> seed=<seed>'"):
        read_manifest(path, corp)


@pytest.mark.parametrize("bad", ["0 d1", "0\td1\t1", "x\td1", "0"])
def test_manifest_line_that_is_not_gid_tab_docid_rejected(tmp_path, bad):
    path, corp = _edited_manifest(tmp_path, lambda lines: [*lines[:3], bad, *lines[3:]])
    with pytest.raises(ValueError, match=r"line 4: expected 'gid<TAB>docid', got"):
        read_manifest(path, corp)


def test_manifest_docid_in_two_groups_rejected(tmp_path):
    # the last line lists group 0's first document under group 1 as well
    path, corp = _edited_manifest(tmp_path, lambda lines: [*lines, "1\t" + lines[1].split("\t")[1]])
    first = path.read_text().splitlines()[1].split("\t")[1]
    with pytest.raises(ValueError, match=rf"line 12: docid '{first}' is already in group 0"):
        read_manifest(path, corp)


def test_manifest_group_count_above_the_corpus_size_rejected_at_the_header(tmp_path):
    # 10**6 groups for 10 documents: rejected before any per-group work
    path, corp = _edited_manifest(tmp_path, lambda lines: ["# g=1000000 seed=0", *lines[1:]])
    with pytest.raises(ValueError, match=r"shards.tsv line 1: cannot split 10 documents into 1000000 groups"):
        read_manifest(path, corp)


def test_manifest_group_without_documents_rejected(tmp_path):
    # the header declares three groups; the lines use only 0 and 1
    path, corp = _edited_manifest(tmp_path, lambda lines: ["# g=3 seed=0", *lines[1:]])
    with pytest.raises(ValueError, match="group 2 has no documents"):
        read_manifest(path, corp)
