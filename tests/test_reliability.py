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
from repro.algorithms.join_based import JoinBasedSearch, LevelRun
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

    def test_wire_charges_the_time_since_it_was_sent(self):
        wire = Deadline(100.0, on_deadline="partial").to_wire()
        wire["sent"] -= 0.040      # 40 ms in an executor's queue
        received = Deadline.from_wire(wire)
        assert received.partial_ok
        assert received.budget_ms <= 60.0
        wire["sent"] -= 1.0
        assert Deadline.from_wire(wire).budget_ms == 0.0
        assert Deadline.from_wire(Deadline().to_wire()).budget_ms is None

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
        results, stats = small_db.search("xml data", timeout_ms=0,
                                         on_deadline="partial",
                                         with_stats=True)
        assert stats.partial
        assert results == []

    def test_search_raise_policy(self, small_db):
        with pytest.raises(DeadlineExceeded):
            small_db.search("xml data", timeout_ms=0)

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
        full = small_db.search("xml data")
        assert small_db.search("xml data", deadline=Deadline(60_000.0)) == full
        assert small_db.search("xml data", deadline=60_000) == full

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
                                  timeout_ms=0, on_deadline="partial")
        assert results


class CountingClock:
    """A clock that counts its calls: `Deadline` calls it once at
    construction and once per poll.  It reads 0 s for the first
    ``frozen`` calls and 10 s from then on."""

    def __init__(self, frozen: int = 2 ** 30):
        self.calls = 0
        self.frozen = frozen

    def __call__(self) -> float:
        self.calls += 1
        return 0.0 if self.calls <= self.frozen else 10.0


@pytest.fixture(scope="module")
def saved_dblp(dblp_db, tmp_path_factory):
    """``dblp_db`` saved flat and on two shards; each test opens its own
    copy, so every column it reads is a first decode."""
    root = tmp_path_factory.mktemp("loop_scope")
    paths = {None: str(root / "flat"), 2: str(root / "sharded")}
    dblp_db.save(paths[None])
    dblp_db.save(paths[2], shards=2)
    return paths


ENTRY_POINTS = {
    "search": lambda db, terms, deadline: db.search(
        terms, deadline=deadline),
    "search_topk": lambda db, terms, deadline: db.search_topk(
        terms, 10_000, deadline=deadline),
    "search_stream": lambda db, terms, deadline: list(db.search_stream(
        terms, deadline=deadline)),
}
LOOP_CASES = [("search", None), ("search_topk", None),
              ("search_stream", None), ("search_topk", 2),
              ("search_stream", 2)]


class TestTheLoopOwnsItsScope:
    """Whatever the entry point, the level loop installs the deadline as
    the thread's scope around its column fetch, so an opened database
    polls it once per level boundary and once per column decode."""

    TERMS = ["gamma", "beta"]

    @pytest.mark.parametrize("entry,shards", LOOP_CASES,
                             ids=[f"{e}-{s or 'flat'}" for e, s in LOOP_CASES])
    def test_polls_per_boundary_and_per_decode(self, saved_dblp, entry,
                                               shards):
        db = XMLDatabase.open(saved_dblp[shards])
        flat = [db] if shards is None else db.shards
        indexes = [d.columnar_index for d in flat]
        if shards is not None:
            # The root protocol decodes column 2 outside the loop, and
            # unbudgeted: decode it first, so what is counted below is
            # the loop's alone.
            db._root_result(self.TERMS, ELCA)
        boundaries = sum(min(p.max_len for p in d.columnar_index
                             .query_postings(self.TERMS))
                         for d in flat if all(t in d.columnar_index
                                              for t in self.TERMS))
        decoded = sum(index.io.columns_read for index in indexes)
        clock = CountingClock()
        ENTRY_POINTS[entry](db, self.TERMS,
                            Deadline(1000, on_deadline="raise", clock=clock))
        decodes = sum(index.io.columns_read for index in indexes) - decoded
        assert boundaries > 0 and decodes > 0
        assert clock.calls - 1 == boundaries + decodes

    @pytest.mark.parametrize("entry,shards", LOOP_CASES,
                             ids=[f"{e}-{s or 'flat'}" for e, s in LOOP_CASES])
    def test_expiry_in_the_first_decode_joins_nothing(
            self, saved_dblp, entry, shards, monkeypatch):
        joins = []
        join_level = LevelRun.join_level

        def counting(run, level, columns):
            joins.append(level)
            return join_level(run, level, columns)

        monkeypatch.setattr(LevelRun, "join_level", counting)
        db = XMLDatabase.open(saved_dblp[shards])
        # Construction and the first level boundary read 0 s; the first
        # column decode polls at 10 s.
        with pytest.raises(DeadlineExceeded):
            ENTRY_POINTS[entry](db, self.TERMS, Deadline(
                1000, on_deadline="raise", clock=CountingClock(frozen=2)))
        assert joins == []
        db = XMLDatabase.open(saved_dblp[shards])
        got = ENTRY_POINTS[entry](db, self.TERMS, Deadline(
            1000, on_deadline="partial", clock=CountingClock(frozen=2)))
        assert list(got) == [] and joins == []
        if entry == "search_topk":
            assert got.partial


# ---------------------------------------------------------------------------
# Batch error isolation
# ---------------------------------------------------------------------------


class _Unparseable:
    """A query object `_terms` cannot coerce -- fails inside the slot."""


class TestBatchIsolation:
    def test_failing_query_lands_in_errors(self, small_db):
        batch = small_db.search_batch(["xml data", _Unparseable(), "data"])
        assert len(batch) == 3
        assert batch[0] and batch[2]
        assert batch[1] is None
        assert set(batch.errors) == {1}
        assert isinstance(batch.errors[1], Exception)
        assert not batch.ok

    def test_clean_batch_is_ok(self, small_db):
        batch = small_db.search_batch(["xml data", "data"])
        assert batch.ok
        assert batch.errors == {}

    def test_summary_skips_failed_slots(self, small_db):
        clean = small_db.search_batch(["xml data", "data"])
        mixed = small_db.search_batch(["xml data", _Unparseable(), "data"])
        # The failed slot contributes nothing, so the summaries agree.
        assert mixed.summary.levels_processed == \
            clean.summary.levels_processed
        assert mixed.summary.tuples_scanned == clean.summary.tuples_scanned

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
