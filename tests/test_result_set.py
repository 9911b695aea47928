"""`ResultSet`: the one result representation (`repro.algorithms.base`).

Three contracts.  It is a `Sequence` of `SearchResult` views, so every
caller that wanted a list still has one; order and truncation on the
columns agree with the same operations on the objects, ties included;
and its wire form round-trips exactly, while anything that is not a
valid wire is the typed, retryable `ShardPayloadError` -- never a 500,
never a wrong answer.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import XMLDatabase
from repro.algorithms import base
from repro.algorithms.base import (ResultSet, SearchResult,
                                   sort_by_document_order, sort_by_score)
from repro.reliability.errors import ShardPayloadError


@pytest.fixture(scope="module")
def table(dblp_db):
    return dblp_db.columnar_index.nodes


@pytest.fixture(scope="module")
def answers(dblp_db):
    results = dblp_db.search("beta gamma")
    assert len(results) > 20
    return results


def exact(results):
    return [(r.node.dewey, r.level, r.score, r.witness_scores)
            for r in results]


class TestSequenceOfViews:
    def test_is_a_sequence_of_search_results(self, answers):
        assert isinstance(answers, ResultSet)
        objects = list(answers)
        assert len(objects) == len(answers) > 0
        assert all(isinstance(r, SearchResult) for r in objects)
        assert bool(answers) and not ResultSet.empty(answers.table, 2)

    def test_index_negative_index_and_out_of_range(self, answers):
        objects = list(answers)
        assert answers[0] == objects[0]
        assert answers[3] == objects[3]
        assert answers[-1] == objects[-1]
        assert answers[np.int64(2)] == objects[2]
        with pytest.raises(IndexError):
            answers[len(answers)]

    def test_slices_are_result_sets(self, answers):
        objects = list(answers)
        head = answers[:5]
        assert isinstance(head, ResultSet)
        assert head == objects[:5]
        assert answers[2:9:3] == objects[2:9:3]
        assert answers[::-1] == objects[::-1]
        assert len(answers[len(answers):]) == 0

    def test_equality_with_lists_both_ways(self, answers):
        objects = list(answers)
        assert answers == objects and objects == answers
        assert answers == tuple(objects)
        assert answers != objects[:-1]
        assert answers != objects[::-1]
        assert answers == answers[:]
        assert ResultSet.empty(answers.table, 2) == []
        assert ResultSet.empty(answers.table, 2) == \
            ResultSet.empty(answers.table, 3)
        assert (answers == 7) is False

    def test_views_are_what_the_engine_used_to_build(self, answers, table):
        for r in answers[:10]:
            assert r.node == table.nodes(np.array([r.node.row]))[0]
            assert r.level == len(r.node.dewey)
            assert len(r.witness_scores) == 2
            assert r.score == sum(r.witness_scores)

    def test_of_wraps_object_lists_once(self, answers, table):
        objects = list(answers)
        wrapped = ResultSet.of(table, objects)
        assert wrapped == answers and exact(wrapped) == exact(answers)
        assert ResultSet.of(table, wrapped) is wrapped
        assert len(ResultSet.of(table, [])) == 0

    def test_is_read_only_and_leaves_the_callers_arrays_alone(self, table):
        rows = np.array([5, 9], dtype=np.int64)
        scores = np.array([1.0, 2.0])
        witness = np.array([[1.0], [2.0]])
        made = ResultSet(table, rows, scores, witness)
        for column in (made.rows, made.scores, made.witness):
            with pytest.raises(ValueError):
                column[0] = 0
        rows[0], scores[0], witness[0, 0] = 6, 3.0, 3.0    # still theirs
        wire = (rows, scores, witness)
        ResultSet.from_wire(table, wire, 1)
        assert all(column.flags.writeable for column in wire)

    def test_an_empty_answer_keeps_its_witness_width(self, answers, table):
        none = ResultSet.empty(table, 3)
        assert none.witness.shape == (0, 3)
        for parts in ([], [none], [none, none[:0]]):
            joined = ResultSet.concat(table, parts, 3)
            assert len(joined) == 0 and joined.witness.shape == (0, 3)
        assert ResultSet.concat(table, [none, answers], 2) is answers
        assert answers.below_root()[:0].witness.shape == (0, 2)
        assert answers.top(0).witness.shape == (0, 2)


class TestOrderAndTruncation:
    def test_sort_by_score_matches_the_object_sort(self, answers):
        assert exact(sort_by_score(answers)) == \
            exact(sort_by_score(list(answers)))
        assert isinstance(sort_by_score(answers), ResultSet)
        assert isinstance(sort_by_score(list(answers)), list)

    def test_ties_break_by_document_order(self, table):
        rows = np.array([40, 7, 19, 3, 28], dtype=np.int64)
        scores = np.array([1.0, 2.0, 1.0, 1.0, 2.0])
        tied = ResultSet(table, rows, scores, scores.reshape(-1, 1).copy())
        assert sort_by_score(tied).rows.tolist() == [7, 28, 3, 19, 40]
        assert exact(sort_by_score(tied)) == exact(sort_by_score(list(tied)))
        assert sort_by_document_order(tied).rows.tolist() == \
            [3, 7, 19, 28, 40]
        # a cut through a tie keeps the earlier documents
        for k in range(7):
            assert tied.top(k) == sort_by_score(list(tied))[:k]

    def test_top_is_the_sorted_prefix(self, answers):
        ranked = sort_by_score(list(answers))
        for k in (0, 1, 10, len(answers) - 1, len(answers), len(answers) + 5):
            assert exact(answers.top(k)) == exact(ranked[:k])

    def test_document_order_matches_the_object_sort(self, answers):
        shuffled = sort_by_score(answers)
        assert exact(sort_by_document_order(shuffled)) == \
            exact(sort_by_document_order(list(shuffled))) == exact(answers)


class TestLazyViews:
    def test_join_then_truncate_builds_only_what_is_looked_at(
            self, monkeypatch):
        """`search_topk(algorithm="join")` evaluates everything and
        truncates on the columns; objects exist only for the k results
        somebody iterates (the parent built one per answer)."""
        db = XMLDatabase.generate_dblp(seed=7, n_papers=1500)
        index = db.columnar_index
        term = max(index.vocabulary, key=index.document_frequency)
        assert len(db.search([term])) >= 1000
        built = []
        original = SearchResult.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(base.SearchResult, "__init__", counting)
        top = db.search_topk([term], 10, algorithm="join")
        assert built == []
        assert len(list(top.results)) == 10
        assert len(built) == 10


class TestWire:
    def test_round_trip_is_the_identity(self, answers, table):
        part = answers.below_root()
        wire = pickle.loads(pickle.dumps(part.to_wire()))
        back = ResultSet.from_wire(table, wire, 2)
        assert back == part
        assert exact(back) == exact(part)
        assert back.payload() == part.payload()
        empty = ResultSet.empty(table, 2)
        assert ResultSet.from_wire(table, empty.to_wire(), 2) == empty

    @pytest.mark.parametrize("mutate", [
        lambda w: list(w),
        lambda w: w[:2],
        lambda w: w + (w[0],),
        lambda w: (w[0].tolist(), w[1], w[2]),
        lambda w: (w[0].astype(np.float64), w[1], w[2]),
        lambda w: (w[0], w[1].astype(np.int64), w[2]),
        lambda w: (w[0], w[1], w[2].astype("U8")),
        lambda w: (w[0][:-1], w[1], w[2]),
        lambda w: (w[0], w[1][:-1], w[2]),
        lambda w: (w[0], w[1], w[2][:-1]),
        lambda w: (w[0], w[1], w[2][:, :1]),
        lambda w: (w[0], w[1], w[2].ravel()),
        lambda w: (w[0].reshape(-1, 1), w[1], w[2]),
        lambda w: (np.array(5), w[1], w[2]),
        lambda w: (np.array(5), np.array(1.0), w[2][:1]),
        lambda w: (w[0], np.where(np.arange(len(w[1])) == 1, np.nan, w[1]),
                   w[2]),
        lambda w: (w[0], w[1], np.full_like(w[2], np.inf)),
        lambda w: (np.where(np.arange(len(w[0])) == 0, -1, w[0]), w[1],
                   w[2]),
        lambda w: (w[0] + 10 ** 9, w[1], w[2]),
        lambda w: (np.where(np.arange(len(w[0])) == 2, 0, w[0]), w[1],
                   w[2]),
        lambda w: None,
        lambda w: "\x00garbage",
    ])
    def test_every_corruption_is_the_typed_error(self, answers, table,
                                                 mutate):
        wire = answers.below_root().to_wire()
        with pytest.raises(ShardPayloadError) as caught:
            ResultSet.from_wire(table, mutate(wire), 2, shard=3)
        assert caught.value.shard == 3

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_wire_is_typed_error_or_equal(self, answers, table,
                                                  data):
        """Overwrite one cell of a valid wire with an arbitrary value:
        the constructor answers `ShardPayloadError` or a `ResultSet`
        equal to its input -- nothing else, in particular no
        `KeyError` / `IndexError` / `DatabaseCorruptError` later, when
        somebody reads the result.  (At the parent an out-of-range
        number passed validation and failed at rehydration: a 500.)"""
        part = answers.below_root()[:12]
        rows, scores, witness = (a.copy() for a in part.to_wire())
        rows = rows.astype(np.int64)
        which = data.draw(st.sampled_from(("rows", "scores", "witness")))
        at = data.draw(st.integers(0, len(rows) - 1))
        if which == "rows":
            rows[at] = data.draw(st.integers(-2 ** 40, 2 ** 40))
        elif which == "scores":
            scores[at] = data.draw(st.floats(allow_nan=True,
                                             allow_infinity=True))
        else:
            witness[at, data.draw(st.integers(0, 1))] = data.draw(
                st.floats(allow_nan=True, allow_infinity=True))
        try:
            back = ResultSet.from_wire(table, (rows, scores, witness), 2)
        except ShardPayloadError:
            return
        assert back == ResultSet(table, rows, scores, witness)
        # ... and it is readable end to end
        assert len(back.payload()) == len(list(back)) == len(rows)
