import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from paramdex.evalkit import (
    MetricReport,
    evaluate,
    evaluate_run_file,
    render_csv,
    render_table,
)
from paramdex.retriever import RankedList
from paramdex.runfiles import read_run, write_run

from conftest import ranked_list

# run-file ids: non-empty, no whitespace (every whitespace character is in Cc or Z*)
_ID = st.text(st.characters(exclude_categories=("Cc", "Cs", "Zs", "Zl", "Zp")), min_size=1, max_size=8)
# ids that mean something to %-formatting or str.format
_FORMAT_ID = st.one_of(st.sampled_from(["%", "%%", "%s", "%.6f", "%(x)s", "{", "}", "{}", "{0}", "a%b{c}"]), _ID)
# scores whose 6-decimal text is easy to get wrong: signed zeros, subnormals, huge values, half-ulp ties,
# exact 7th-decimal ties and their float32 and float64 neighbours, carries into the whole part, and
# values either side of 1e15 and 2**53
_TIES = [0.0078125, -3.9921875, 1.0234375]
_EDGE_SCORES = [0.0, -0.0, 5e-324, -5e-324, 1e-45, -1e-45, 1e300, -1e300, 3.4e38, 5e-7, -5e-7,
                2.5e-6, 0.1234565, -1.0000005, *_TIES,
                *(float(np.nextafter(dtype(t), dtype(to))) for dtype in (np.float32, np.float64)
                  for t in _TIES for to in (-np.inf, np.inf)),
                0.9999995, 9.99999951, -99.9999996,
                float(np.nextafter(1e15, 0)), 1e15, float(np.nextafter(1e15, np.inf)),
                float(2**53 - 1), float(2**53), float(2**53 + 2), -float(2**53 + 2)]


@st.composite
def _ranked_lists(draw):
    """(external ids, ranked lists): up to 4 lists of up to 4 docids, float32 or float64 scores."""
    exts = draw(st.lists(_FORMAT_ID, min_size=1, max_size=8, unique=True))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    edge = [s for s in _EDGE_SCORES if abs(s) <= float(np.finfo(dtype).max)]
    score = st.one_of(st.sampled_from(edge), st.floats(allow_nan=False, allow_infinity=False,
                                                       width=np.finfo(dtype).bits))
    lists = draw(st.dictionaries(
        _FORMAT_ID,
        st.lists(st.tuples(st.integers(0, len(exts) - 1), score), max_size=4, unique_by=lambda e: e[0]),
        max_size=4,
    ))
    return exts, [RankedList(qid, np.array([d for d, _ in items], dtype=np.int64),
                             np.array([s for _, s in items], dtype=dtype))
                  for qid, items in lists.items()]


def _reference_run(ranked, external_of, tag: str) -> str:
    """The per-line format write_run must reproduce byte for byte."""
    return "".join(f"{rl.qid} Q0 {external_of(d)} {rank} {s:.6f} {tag}\n"
                   for rl in ranked
                   for rank, (d, s) in enumerate(zip(rl.ids.tolist(), rl.scores.tolist()), start=1))


class TestRecall:
    def test_rank_two_positive(self):
        runs = {"q": ["d3", "d7", "d1"]}
        qrels = {"q": "d7"}
        metrics = evaluate(runs, qrels, ks=(1, 2)).metrics
        assert metrics["recall@1"] == 0.0
        assert metrics["recall@2"] == 1.0

    def test_absent_positive_contributes_zero(self):
        runs = {"q": ["d1", "d2"]}
        assert evaluate(runs, {"q": "d9"}, ks=(10,)).metrics["recall@10"] == 0.0

    def test_query_missing_from_run_counts_as_miss(self):
        runs = {"q1": ["d0"]}
        qrels = {"q1": "d0", "q2": "d5"}
        assert evaluate(runs, qrels, ks=(1,)).metrics["recall@1"] == 0.5

    def test_run_qid_missing_from_qrels_rejected(self):
        with pytest.raises(ValueError, match="q9"):
            evaluate({"q9": ["d0"]}, {"q1": "d0"}, ks=(1,))

    def test_monotone_in_k(self):
        rng = np.random.default_rng(0)
        docs = [f"d{i}" for i in range(30)]
        runs = {f"q{i}": list(rng.permutation(docs)) for i in range(40)}
        qrels = {f"q{i}": docs[rng.integers(30)] for i in range(40)}
        metrics = evaluate(runs, qrels, ks=tuple(range(1, 31))).metrics
        values = [metrics[f"recall@{k}"] for k in range(1, 31)]
        assert values == sorted(values)

    def test_matches_naive_recount_on_100_queries(self):
        rng = np.random.default_rng(1)
        docs = [f"d{i}" for i in range(50)]
        runs = {f"q{i}": list(rng.permutation(docs))[:20] for i in range(100)}
        qrels = {f"q{i}": docs[rng.integers(50)] for i in range(100)}
        metrics = evaluate(runs, qrels, ks=(1, 5, 20)).metrics
        for k in (1, 5, 20):
            hits = 0
            for qid, pos in qrels.items():  # independent recount
                hits += int(pos in runs[qid][:k])
            assert metrics[f"recall@{k}"] == hits / 100


class TestMRR:
    def test_rank_one(self):
        assert evaluate({"q": ["d0"]}, {"q": "d0"}).metrics["mrr"] == 1.0

    def test_rank_four(self):
        assert evaluate({"q": ["a", "b", "c", "d0"]}, {"q": "d0"}).metrics["mrr"] == 0.25

    def test_three_query_fixture(self):
        runs = {
            "q1": ["p1", "x", "y"],
            "q2": ["a", "b", "c", "p2"],
            "q3": ["a", "b"],
        }
        qrels = {"q1": "p1", "q2": "p2", "q3": "p3"}
        value = evaluate(runs, qrels, cutoff=100).metrics["mrr"]
        assert value == pytest.approx((1.0 + 0.25 + 0.0) / 3, abs=1e-12)
        assert f"{value:.6f}" == "0.416667"

    def test_cutoff_zeroes_deep_ranks(self):
        runs = {"q": ["a", "b", "p"]}
        assert evaluate(runs, {"q": "p"}, cutoff=2).metrics["mrr"] == 0.0

    def test_bounded_by_recall_at_cutoff(self):
        rng = np.random.default_rng(2)
        docs = [f"d{i}" for i in range(40)]
        runs = {f"q{i}": list(rng.permutation(docs))[:25] for i in range(60)}
        qrels = {f"q{i}": docs[rng.integers(40)] for i in range(60)}
        metrics = evaluate(runs, qrels, ks=(25,), cutoff=25).metrics
        assert metrics["mrr"] <= metrics["recall@25"] + 1e-12

    def test_reciprocals_added_left_to_right(self):
        # 1 + 1/3 + 1 summed in qrels order, then divided by 3; a compensated
        # sum (math.fsum, or sum() on Python >= 3.12) gives 0.7777777777777778
        runs = {"q1": ["p1"], "q2": ["a", "b", "p2"], "q3": ["p3"]}
        qrels = {"q1": "p1", "q2": "p2", "q3": "p3"}
        assert evaluate(runs, qrels).metrics["mrr"] == 0.7777777777777777


class TestEvaluate:
    def test_perfect_run(self):
        runs = {f"q{i}": [f"d{i}", "x"] for i in range(5)}
        qrels = {f"q{i}": f"d{i}" for i in range(5)}
        report = evaluate(runs, qrels, ks=(1, 20), cutoff=100)
        assert all(v == 1.0 for v in report.metrics.values())
        assert report.query_count == 5

    def test_empty_run_scores_zero(self, caplog):
        report = evaluate({}, {"q1": "d0"}, ks=(1,), cutoff=10)
        assert report.metrics["recall@1"] == 0.0
        assert report.metrics["mrr"] == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        docs = [f"d{i}" for i in range(20)]
        runs = {f"q{i}": list(rng.permutation(docs))[:10] for i in range(30)}
        qrels = {f"q{i}": docs[rng.integers(20)] for i in range(30)}
        a = evaluate(runs, qrels)
        shuffled = dict(reversed(list(qrels.items())))
        b = evaluate(runs, shuffled)
        assert a.metrics == b.metrics

    def test_nan_flag_when_no_queries(self):
        report = evaluate({}, {}, ks=(1,))
        assert report.has_nan()

    @pytest.mark.parametrize("ks, cutoff, error", [
        ((1, 0), 10, "k must be >= 1"),
        ((1,), 0, "cutoff must be >= 1"),
    ])
    def test_nonpositive_k_or_cutoff_rejected(self, ks, cutoff, error):
        with pytest.raises(ValueError, match=error):
            evaluate({"q": ["d0"]}, {"q": "d0"}, ks=ks, cutoff=cutoff)


class TestRunFiles:
    def test_roundtrip(self, tmp_path):
        ranked = [
            ranked_list("q1", [(0, 2.5), (2, 1.25)]),
            ranked_list("q2", [(1, -0.5)]),
        ]
        path = tmp_path / "run.txt"
        write_run(path, ranked, lambda d: f"doc{d}", tag="test")
        text = path.read_text()
        assert text.splitlines()[0] == "q1 Q0 doc0 1 2.500000 test"
        parsed = read_run(path)
        assert parsed["q1"] == [("doc0", 1, 2.5), ("doc2", 2, 1.25)]
        assert parsed["q2"] == [("doc1", 1, -0.5)]

    @pytest.mark.parametrize("qid,tag", [("q 1", "t"), ("", "t"), ("q1", "my tag"), ("q1", "")])
    def test_unreadable_qid_or_tag_rejected_before_writing(self, tmp_path, qid, tag):
        path = tmp_path / "run.txt"
        ranked = [ranked_list("q0", [(0, 1.0)]), ranked_list(qid, [(1, 0.5)])]
        with pytest.raises(ValueError, match="is empty or contains whitespace"):
            write_run(path, ranked, lambda d: f"doc{d}", tag=tag)
        assert not path.exists()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        exts=st.lists(_ID, min_size=1, max_size=8, unique=True),
        lists=st.dictionaries(
            _ID,
            st.lists(st.tuples(st.integers(0, 7), st.floats(-1e6, 1e6)), max_size=5, unique_by=lambda e: e[0]),
            max_size=6,
        ),
        tag=_ID,
    )
    def test_write_read_roundtrip(self, tmp_path_factory, exts, lists, tag):
        # a docid appears at most once per list, as in every list the program ranks
        ranked = [ranked_list(qid, [(d, s) for d, s in items if d < len(exts)]) for qid, items in lists.items()]
        path = tmp_path_factory.mktemp("run") / "run.txt"
        write_run(path, ranked, exts.__getitem__, tag=tag)
        # a list without items writes no line, so read_run does not see its qid
        assert read_run(path) == {
            rl.qid: [(exts[d], rank, float(f"{s:.6f}")) for rank, (d, s) in enumerate(rl.items, start=1)]
            for rl in ranked if rl.items
        }

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=_ranked_lists(), tag=_FORMAT_ID)
    @example(case=(["d%0", "{d1}"], [RankedList("q%s", np.array([1, 0]), np.array([-0.0, 1e-45], np.float32)),
                                     RankedList("{q}", np.array([], np.int64), np.array([], np.float32))]),
             tag="%")
    def test_write_run_matches_per_line_format(self, tmp_path_factory, case, tag):
        exts, ranked = case
        path = tmp_path_factory.mktemp("run") / "run.txt"
        write_run(path, ranked, exts.__getitem__, tag=tag)
        assert path.read_bytes() == _reference_run(ranked, exts.__getitem__, tag).encode()

    def test_write_run_matches_per_line_format_across_blocks(self, tmp_path):
        # more lines than one assembled block: mixed list lengths, empty lists, non-ASCII ids and qids
        rng = np.random.default_rng(7)
        exts = [f"док{i}✓" if i % 3 else f"d%{i}" for i in range(30000)]
        lengths = [20000, 0, 1, 23000, 0, 17000]
        ranked = []
        for i, n in enumerate(lengths):
            dtype = np.float32 if i % 2 else np.float64
            edge = [s for s in _EDGE_SCORES if abs(s) <= float(np.finfo(dtype).max)]
            # random magnitudes (up to past 1e15), exact 7th-decimal ties k/128, and the edge scores
            scores = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 17, n)
            scores[::3] = rng.integers(-10**5, 10**5, len(scores[::3])) / 128
            scores[:len(edge)] = edge[:n]
            ranked.append(RankedList(f"запрос{i}€", rng.permutation(len(exts))[:n], scores.astype(dtype)))
        path = tmp_path / "run.txt"
        write_run(path, ranked, exts.__getitem__, tag="%s-тег")
        assert path.read_bytes() == _reference_run(ranked, exts.__getitem__, "%s-тег").encode()

    def test_external_of_called_once_per_distinct_docid(self, tmp_path):
        calls = []

        def external_of(d):
            calls.append(d)
            return f"doc{d}"

        ranked = [ranked_list("q1", [(5, 1.0), (2, 0.5), (9, 0.1)]), ranked_list("q2", [(2, 3.0), (5, 1.0)]),
                  ranked_list("q3", [(9, 0.2)])]
        write_run(tmp_path / "run.txt", ranked, external_of, tag="t")
        assert sorted(calls) == [2, 5, 9]
        assert read_run(tmp_path / "run.txt")["q2"] == [("doc2", 1, 3.0), ("doc5", 2, 1.0)]

    @pytest.mark.parametrize("ids,scores,error", [
        ([0, 1], [1.0, np.nan], "score nan is not finite"),
        ([0], np.array([np.inf], np.float32), "score inf is not finite"),
        ([0, 1], [-np.inf, 0.5], "score -inf is not finite"),
        ([0, 1], [1.0], "are not 1-D arrays of one length"),
        ([0], [1.0, 0.5], "are not 1-D arrays of one length"),
        ([[0, 1]], [[1.0, 0.5]], "are not 1-D arrays of one length"),
    ])
    def test_unreadable_ranked_list_rejected_before_writing(self, tmp_path, ids, scores, error):
        # read_run rejects a non-finite score; ids and scores of different lengths have no lines
        path = tmp_path / "run.txt"
        ranked = [ranked_list("q0", [(0, 1.0)]), RankedList("q1", np.array(ids), np.asarray(scores))]
        with pytest.raises(ValueError, match=f"qid 'q1': .*{error}"):
            write_run(path, ranked, lambda d: f"doc{d}", tag="t")
        assert not path.exists()

    @pytest.mark.parametrize("text,error", [
        ("q1 Q0 d0 1 0.5 t\nq1 Q0 d0 2 0.4 t\n", r"line 2: docid 'd0' repeated for qid 'q1'"),
        ("q1 Q0 d0 1 0.5 t\nq2 Q0 d1 1 0.5 t\nq1 Q0 d1 1 0.4 t\n", r"line 3: rank 1 repeated for qid 'q1'"),
        # the first repeated line of the file is named, whichever qid it belongs to
        ("q1 Q0 d0 1 0.5 t\nq2 Q0 d0 1 0.5 t\nq2 Q0 d0 2 0.4 t\nq1 Q0 d1 1 0.4 t\n",
         r"line 3: docid 'd0' repeated for qid 'q2'"),
        ("q1 Q0 d0 1 nan t\n", r"line 1: score nan is not finite"),
        ("q1 Q0 d0 1 0.5 t\nq1 Q0 d1 2 inf t\n", r"line 2: score inf is not finite"),
        ("q1 Q0 d0 1 -Infinity t\n", r"line 1: score -Infinity is not finite"),
    ])
    def test_repeated_docid_or_rank_and_non_finite_score_rejected(self, tmp_path, text, error):
        path = tmp_path / "run.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"run.txt {error}"):
            read_run(path)

    def test_same_docid_and_rank_under_two_qids_accepted(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d0 1 0.5 t\nq2 Q0 d0 1 0.5 t\n")
        assert read_run(path) == {"q1": [("d0", 1, 0.5)], "q2": [("d0", 1, 0.5)]}

    def test_docid_under_two_qids_is_one_object(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 doc17 1 0.5 t\nq1 Q0 doc18 2 0.4 t\nq2 Q0 doc17 1 0.5 t\n")
        runs = read_run(path)
        assert runs["q1"][0][0] is runs["q2"][0][0]

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d0 1 0.5 tag\nbroken line\n")
        with pytest.raises(ValueError, match="line 2"):
            read_run(path)

    def test_evaluate_run_file(self, tmp_path):
        run_path = tmp_path / "run.txt"
        write_run(run_path, [ranked_list("q1", [(0, 1.0), (1, 0.5)])], lambda d: f"doc{d}")
        qrels_path = tmp_path / "qrels.tsv"
        qrels_path.write_text("q1\tdoc1\nq2\tdoc0\n")
        report = evaluate_run_file(run_path, qrels_path, ks=(1, 2), cutoff=10)
        assert report.metrics["recall@1"] == 0.0
        assert report.metrics["recall@2"] == 0.5
        assert report.metrics["mrr"] == 0.25


class TestRendering:
    def _report(self):
        return MetricReport({"recall@1": 0.5, "mrr": 0.416667}, 3)

    def test_table(self):
        table = render_table(self._report())
        assert "recall@1" in table and "0.5000" in table and "0.4167" in table

    def test_csv(self):
        csv = render_csv(self._report())
        lines = csv.strip().split("\n")
        assert lines[0] == "metric,value"
        assert "mrr,0.416667" in lines
        assert "queries,3" in lines
