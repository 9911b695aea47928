"""Tests for the reliability layer: deadlines, partial results, and
batch error isolation (`repro.reliability`, `docs/RELIABILITY.md`).

The partial-result tests are the load-bearing ones: they prove the
contract that a budget-truncated run is *degraded, never wrong* -- a
subset of the unbounded complete evaluation, and a prefix of the
unbounded top-K emission order, on both the vectorized and scalar join
paths.  All deadline expiry is driven by an injected step clock, so
nothing here sleeps or depends on machine speed.
"""

import pytest

from repro import XMLDatabase
from repro.algorithms.base import ELCA, SLCA
from repro.algorithms.join_based import JoinBasedSearch
from repro.algorithms.topk_keyword import TopKKeywordSearch
from repro.reliability import Deadline, DeadlineExceeded, QueryBudget
from repro.reliability.deadline import (active_deadline, check_active,
                                        deadline_scope)
from tests.conftest import StepClock
from tests.reference_join import PerCandidateJoinSearch


# ---------------------------------------------------------------------------
# Deadline semantics
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_no_budget_never_expires(self):
        d = Deadline(timeout_ms=None)
        assert not d.expired()
        assert d.remaining_ms() == float("inf")
        d.check()  # never raises

    def test_expires_on_injected_clock(self):
        d = Deadline(timeout_ms=2.0, clock=StepClock(0.001))
        assert not d.expired()  # 1 ms elapsed
        assert d.expired()      # 2 ms elapsed
        assert d.expired()      # stays expired

    def test_raise_expired_carries_budget_and_elapsed(self):
        d = Deadline(timeout_ms=1.0, clock=StepClock(0.001))
        with pytest.raises(DeadlineExceeded) as err:
            d.check()
        assert err.value.budget_ms == 1.0
        assert err.value.elapsed_ms >= 1.0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            Deadline(timeout_ms=1.0, on_deadline="retry")

    def test_partial_ok(self):
        assert Deadline(1.0, on_deadline="partial").partial_ok
        assert not Deadline(1.0).partial_ok

    def test_query_budget_is_deadline(self):
        assert QueryBudget is Deadline

    def test_coerce_passthrough_and_sugar(self):
        d = Deadline(5.0)
        assert Deadline.coerce(d) is d
        assert Deadline.coerce(None, None) is None
        built = Deadline.coerce(7.5)
        assert built.budget_ms == 7.5
        built = Deadline.coerce(None, timeout_ms=3.0, on_deadline="partial")
        assert built.budget_ms == 3.0 and built.partial_ok

    def test_scope_nesting_shadows_and_restores(self):
        outer = Deadline(1000.0)
        inner = Deadline(2000.0)
        assert active_deadline() is None
        with deadline_scope(outer):
            assert active_deadline() is outer
            with deadline_scope(inner):
                assert active_deadline() is inner
            # None shadows: an unbudgeted query inside a budgeted batch
            # must stay unbudgeted.
            with deadline_scope(None):
                assert active_deadline() is None
            assert active_deadline() is outer
        assert active_deadline() is None

    def test_check_active_polls_the_scope(self):
        check_active()  # no scope installed: a no-op
        expired = Deadline(1.0, clock=StepClock(0.001))
        with deadline_scope(expired):
            with pytest.raises(DeadlineExceeded):
                check_active()
        check_active()  # scope gone again


# ---------------------------------------------------------------------------
# Partial results: subset / prefix proofs
# ---------------------------------------------------------------------------


def _result_map(results):
    return {r.node.dewey: r.score for r in results}


class TestPartialCompleteSearch:
    @pytest.mark.parametrize("engine_cls",
                             [JoinBasedSearch, PerCandidateJoinSearch],
                             ids=["vectorized", "scalar"])
    @pytest.mark.parametrize("semantics", [ELCA, SLCA])
    def test_partial_is_subset_of_full(self, dblp_db, engine_cls, semantics):
        engine = engine_cls(dblp_db.columnar_index)
        full, full_stats = engine.evaluate(["gamma", "beta"], semantics)
        assert not full_stats.partial
        full_map = _result_map(full)

        # One expired() poll per level: a budget of B steps processes
        # exactly B - 1 levels before the engine stops.
        for budget_polls in (1, 2, 3):
            deadline = Deadline(timeout_ms=budget_polls - 0.5,
                                on_deadline="partial",
                                clock=StepClock(0.001))
            partial, stats = engine.evaluate(["gamma", "beta"], semantics,
                                             deadline=deadline)
            assert stats.partial
            assert stats.levels_skipped > 0
            partial_map = _result_map(partial)
            # Subset with identical scores: same-level candidates never
            # interact, so stopping early loses results, never alters them.
            for dewey, score in partial_map.items():
                assert dewey in full_map
                assert score == full_map[dewey]
            assert len(partial_map) <= len(full_map)

    def test_partial_grows_monotonically_to_full(self, dblp_db):
        engine = JoinBasedSearch(dblp_db.columnar_index)
        full, _ = engine.evaluate(["gamma", "beta"], ELCA)
        seen = -1
        for budget_polls in range(1, 16):
            deadline = Deadline(timeout_ms=budget_polls - 0.5,
                                on_deadline="partial",
                                clock=StepClock(0.001))
            partial, stats = engine.evaluate(["gamma", "beta"], ELCA,
                                             deadline=deadline)
            assert len(partial) >= seen
            seen = len(partial)
            if not stats.partial:
                assert _result_map(partial) == _result_map(full)
                break
        else:
            pytest.fail("budget of 15 level-polls never covered the tree")

    def test_raise_policy_raises(self, dblp_db):
        engine = JoinBasedSearch(dblp_db.columnar_index)
        deadline = Deadline(timeout_ms=0.5, clock=StepClock(0.001))
        with pytest.raises(DeadlineExceeded):
            engine.evaluate(["gamma", "beta"], ELCA, deadline=deadline)


class TestPartialTopK:
    def _full_order(self, db, terms):
        engine = TopKKeywordSearch(db.columnar_index)
        return [(r.node.dewey, r.score) for r in engine.stream(terms)]

    def test_partial_is_prefix_of_unbounded_emission(self, dblp_db):
        terms = ["gamma", "beta"]
        full = self._full_order(dblp_db, terms)
        assert full  # the corpus plants these terms together
        engine = TopKKeywordSearch(dblp_db.columnar_index)
        saw_nontrivial_partial = False
        budget = 1.5
        while True:
            deadline = Deadline(timeout_ms=budget, on_deadline="partial",
                                clock=StepClock(0.001))
            result = engine.search(terms, k=len(full) + 1,
                                   deadline=deadline)
            got = [(r.node.dewey, r.score) for r in result]
            # Prefix, not just subset: emission only happens once a
            # result provably beats the live bound, so the order is
            # the unbounded run's order.
            assert got == full[: len(got)]
            if result.partial:
                assert result.stats.partial
                if result.bound is not None:
                    # The guarantee gap: nothing unreturned outscores it.
                    for _dewey, score in full[len(got):]:
                        assert score <= result.bound + 1e-9
                if got:
                    saw_nontrivial_partial = True
                budget *= 2
                if budget > 1e6:  # pragma: no cover - safety valve
                    pytest.fail("budget never covered the full stream")
            else:
                assert got == full
                break
        assert saw_nontrivial_partial, (
            "no budget produced a non-empty strict prefix; the test "
            "lost its power to detect ordering bugs")

    def test_raise_policy_raises(self, dblp_db):
        engine = TopKKeywordSearch(dblp_db.columnar_index)
        deadline = Deadline(timeout_ms=0.5, clock=StepClock(0.001))
        with pytest.raises(DeadlineExceeded):
            engine.search(["gamma", "beta"], k=5, deadline=deadline)


# ---------------------------------------------------------------------------
# API surface: XMLDatabase.search / search_topk / search_stream
# ---------------------------------------------------------------------------


class TestDatabaseDeadlines:
    def test_search_partial_stats_and_metrics(self, small_db):
        hits = small_db.metrics.counter("repro_deadline_hits_total",
                                        {"outcome": "partial"})
        before = hits.value
        results, stats = small_db.search("xml data", timeout_ms=0,
                                         on_deadline="partial",
                                         with_stats=True)
        assert stats.partial
        assert results == []
        assert hits.value == before + 1

    def test_search_raise_policy(self, small_db):
        errors = small_db.metrics.counter("repro_deadline_hits_total",
                                          {"outcome": "error"})
        before = errors.value
        with pytest.raises(DeadlineExceeded):
            small_db.search("xml data", timeout_ms=0)
        assert errors.value == before + 1

    def test_partial_results_never_cached(self, small_db):
        empty, stats = small_db.search("xml data", timeout_ms=0,
                                       on_deadline="partial",
                                       with_stats=True)
        assert stats.partial and empty == []
        # If the degraded answer had been cached, this would be a hit
        # returning [] -- instead the unbudgeted query computes fully.
        full = small_db.search("xml data")
        assert full

    def test_search_accepts_deadline_object_and_ms_number(self, small_db):
        full = small_db.search("xml data", use_cache=False)
        assert small_db.search("xml data", deadline=Deadline(60_000.0),
                               use_cache=False) == full
        assert small_db.search("xml data", deadline=60_000,
                               use_cache=False) == full

    def test_topk_partial_flag(self, small_db):
        result = small_db.search_topk("xml data", 3, timeout_ms=0,
                                      on_deadline="partial")
        assert result.partial
        assert list(result) == []

    def test_topk_join_fallback_partial(self, small_db):
        # The "join" top-K route (evaluate everything, truncate) also
        # honors the budget; its gap is unknown (bound is None).
        result = small_db.search_topk("xml data", 3, algorithm="join",
                                      timeout_ms=0, on_deadline="partial")
        assert result.partial
        assert result.bound is None

    def test_topk_raise_policy(self, small_db):
        with pytest.raises(DeadlineExceeded):
            small_db.search_topk("xml data", 3, timeout_ms=0)

    def test_stream_partial_ends_cleanly(self, small_db):
        stream = small_db.search_stream("xml data", timeout_ms=0,
                                        on_deadline="partial")
        assert list(stream) == []

    def test_stream_raise_policy(self, small_db):
        stream = small_db.search_stream("xml data", timeout_ms=0)
        with pytest.raises(DeadlineExceeded):
            list(stream)

    def test_stream_installs_no_thread_local_scope(self, small_db):
        # A scope left set across a yield would leak into the
        # consumer's unrelated queries between next() calls.
        stream = small_db.search_stream("xml data", timeout_ms=60_000)
        next(stream, None)
        assert active_deadline() is None

    @pytest.mark.parametrize("algorithm", ["stack", "index", "oracle"])
    def test_in_memory_baselines_ignore_budgets(self, small_db, algorithm):
        # Documented: budgets are enforced on the join paths only.
        results = small_db.search("xml data", algorithm=algorithm,
                                  timeout_ms=0, on_deadline="partial",
                                  use_cache=False)
        assert results


# ---------------------------------------------------------------------------
# Batch error isolation
# ---------------------------------------------------------------------------


class _Unparseable:
    """A query object `_terms` cannot coerce -- fails inside the slot."""


class TestBatchIsolation:
    def test_failing_query_lands_in_errors(self, small_db):
        errors_total = small_db.metrics.counter(
            "repro_batch_query_errors_total")
        before = errors_total.value
        batch = small_db.search_batch(["xml data", _Unparseable(), "data"])
        assert len(batch) == 3
        assert batch[0] and batch[2]
        assert batch[1] is None
        assert set(batch.errors) == {1}
        assert isinstance(batch.errors[1], Exception)
        assert not batch.ok
        assert errors_total.value == before + 1

    def test_clean_batch_is_ok(self, small_db):
        batch = small_db.search_batch(["xml data", "data"])
        assert batch.ok
        assert batch.errors == {}

    def test_summary_skips_failed_slots(self, small_db):
        clean = small_db.search_batch(["xml data", "data"],
                                      use_cache=False)
        mixed = small_db.search_batch(["xml data", _Unparseable(), "data"],
                                      use_cache=False)
        # The failed slot contributes nothing, so the summaries agree.
        assert mixed.summary.levels_processed == \
            clean.summary.levels_processed
        assert mixed.summary.tuples_scanned == clean.summary.tuples_scanned

    def test_raise_on_error_fails_fast(self, small_db):
        with pytest.raises(Exception):
            small_db.search_batch(["xml data", _Unparseable(), "data"],
                                  raise_on_error=True)

    @pytest.mark.parametrize("threads", [None, 3])
    def test_queue_depth_returns_to_rest(self, small_db, threads):
        """Error isolation releases every slot, also when several
        batches run against the database at once."""
        from tests.conftest import on_threads

        small_db.columnar_index
        gauge = small_db.metrics.gauge("repro_batch_queue_depth")
        rest = gauge.value
        queries = ["xml data", _Unparseable(), "data"]
        if threads is None:
            batches = [small_db.search_batch(queries)]
        else:
            batches = on_threads(threads, small_db.search_batch,
                                 [queries] * threads)
        assert all(set(batch.errors) == {1} for batch in batches)
        assert gauge.value == rest

    def test_queue_depth_survives_fail_fast(self, small_db):
        gauge = small_db.metrics.gauge("repro_batch_queue_depth")
        rest = gauge.value
        with pytest.raises(Exception):
            small_db.search_batch(["xml data", _Unparseable(), "data"],
                                  raise_on_error=True)
        assert gauge.value == rest

    def test_shared_deadline_partial_batch(self, small_db):
        batch = small_db.search_batch(["xml data", "data"], timeout_ms=0,
                                      on_deadline="partial",
                                      with_stats=True)
        assert batch.ok  # partial is a policy outcome, not an error
        for results, stats in batch:
            assert results == []
            assert stats.partial
        assert batch.summary.partial

    def test_shared_deadline_raise_isolated(self, small_db):
        batch = small_db.search_batch(["xml data", "data"], timeout_ms=0)
        assert set(batch.errors) == {0, 1}
        for exc in batch.errors.values():
            assert isinstance(exc, DeadlineExceeded)

    def test_topk_batch_errors(self, small_db):
        batch = small_db.search_batch(["xml data", _Unparseable()], k=2)
        assert batch[0] is not None
        assert batch[1] is None
        assert set(batch.errors) == {1}
