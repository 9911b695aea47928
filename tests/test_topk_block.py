"""Differential tests for the block-at-a-time top-K engine and the default
top-K plan.

Independent accounts of a top-K answer must agree: the block engine in
`src/` (`TopKKeywordSearch`: the level's join first, then
`BlockStarJoin` over the single per-term score order reduced to that
join), the per-tuple engine it replaced (`tests/reference_topk.py`,
which rank-joins whole columns and is the unreduced reference), the
default plan (`HybridTopKSearch`: every level finished in bulk), flat
and on two shards, complete evaluation (`JoinBasedSearch.evaluate`, the
same level loop with no K, whole and cut at every level boundary), and
the naive `SemanticsOracle`.  The ranked input a level serves is compared
with the reference `ColumnCursor`'s pop sequence directly, and the work
is held to counts: the block over-read bound, no pull at a level nothing
joins at, no more tuples than the joined runs hold.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import XMLDatabase
from repro.algorithms import topk_join as block_module
from repro.algorithms import topk_keyword as driver_module
from repro.algorithms.base import ExecutionStats
from repro.algorithms.erasure import BitmapEraser
from repro.algorithms.hybrid import HybridTopKSearch
from repro.algorithms.join_based import JoinBasedSearch, LevelRun
from repro.algorithms.oracle import SemanticsOracle
from repro.algorithms.topk_join import CLASSIC, GROUP, BlockStarJoin
from repro.algorithms.topk_keyword import TopKKeywordSearch
from repro.datagen.dblp import DBLPGenerator
from repro.datagen.workload import WorkloadBuilder
from repro.index.columnar import ColumnarPostings
from repro.index.scored import ScoredPostings
from repro.obs import Tracer
from repro.reliability import Deadline, DeadlineExceeded
from repro.scoring.ranking import (DampingFunction, MaxCombiner,
                                   RankingModel, SumCombiner,
                                   WeightedSumCombiner)
from repro.serve import ShardedDatabase
from repro.xmltree.tree import Node, XMLTree
from tests.conftest import StepClock
from tests.reference_topk import (GroupedScoredPostings, PerTupleTopKSearch,
                                  erased_probe)

KEYWORDS = ["kx", "ky", "kz"]
COMBINERS = {
    "sum": lambda n: SumCombiner(),
    "weighted": lambda n: WeightedSumCombiner([2.0, 0.5, 1.25][:n]),
    "max": lambda n: MaxCombiner(),
}


def chain(tag, length, text):
    """A path of `length` nodes, the last one tagged `tag` and carrying
    `text`; returns its top."""
    top = node = Node(tag if length == 1 else "n", text if length == 1
                      else "")
    for depth in range(2, length + 1):
        last = depth == length
        node = node.add_child(Node(tag if last else "n",
                                   text if last else ""))
    return top


def height(node):
    return 1 + max(map(height, node.children), default=0)


def plant_deep(root, text, draw):
    """``kx`` and ``ky`` once each, in different branches and deeper
    than anything else in the tree: at those levels both terms have a
    column and nothing joins -- below every level that has results."""
    length = height(root) + draw(st.integers(0, 1))
    root.add_child(chain("deep", length, text("kx")))
    root.add_child(chain("deep", length, text("ky")))


def plant_erased(root, text, draw):
    """A node with both keywords and an ancestor path that holds nothing
    else: the ancestors are C-nodes (in the level's join) whose every
    occurrence a deeper ELCA has erased, so they never complete."""
    top = chain("erased", draw(st.integers(1, 2)), "")
    bottom = top
    while bottom.children:
        bottom = bottom.children[0]
    bottom.add_child(Node("n", text("kx ky")))
    root.add_child(top)


def plant_above(root, text, draw):
    """A candidate that holds both keywords itself *and* has a C-node
    below it: an ELCA, not an SLCA."""
    top = root.add_child(Node("above", text("kx ky")))
    top.add_child(Node("n", text("kx ky")))


# In planting order: "deep" measures the tree it is added to.
PLANTS = {"erased": plant_erased, "above": plant_above, "deep": plant_deep}


@st.composite
def stacked_tree(draw, plant=False):
    """A random tree that repeats one of its subtrees verbatim (the
    duplicate subtrees Böttcher et al. find throughout DBLP and XMark)
    and carries keywords on inner nodes as readily as on leaves, so an
    ancestor and its descendant hold the same keyword at once.

    With ``plant`` the root also receives some of `PLANTS`, each found
    again by its tag: shapes a random tree only sometimes has and the
    level body treats specially."""
    words = st.lists(st.sampled_from(KEYWORDS + ["noise"]), max_size=3)
    spec = st.recursive(
        st.tuples(words, st.just([])),
        lambda c: st.tuples(words, st.lists(c, min_size=1, max_size=3)),
        max_leaves=10)
    repeated = draw(spec)
    top_words = draw(words)
    siblings = draw(st.lists(spec, max_size=3))
    copies = draw(st.integers(2, 4))

    def build(node_spec):
        text, children = node_spec
        node = Node("n", " ".join(text))
        for child in children:
            node.add_child(build(child))
        return node

    root = Node("r", " ".join(top_words))
    for node_spec in [repeated] * copies + siblings:
        root.add_child(build(node_spec))
    if plant:
        def text(keywords):     # padded, so local scores differ
            return keywords + " noise" * draw(st.integers(0, 2))

        chosen = draw(st.sets(st.sampled_from(sorted(PLANTS)), min_size=1))
        for name, plant_one in PLANTS.items():
            if name in chosen:
                plant_one(root, text, draw)
    return XMLTree(root).freeze()


query_terms = st.lists(st.sampled_from(KEYWORDS), min_size=1, max_size=3,
                       unique=True)


def scores_of(results):
    return [round(r.score, 9) for r in results]


@pytest.fixture(params=[1, 3, 16], ids=lambda b: f"block{b}")
def block_start(request, monkeypatch):
    """Generated trees are small; starting blocks below 16 makes them
    span several blocks per level."""
    monkeypatch.setattr(block_module, "BLOCK_START", request.param)
    return request.param


@pytest.fixture
def rank_joins(monkeypatch):
    """``(level, star join, rows of the joined runs)`` of every rank
    join the driver builds, in order."""
    built = []
    original = driver_module._TopKRun.rank_join

    def spying(run, level, joined, runs):
        join = original(run, level, joined, runs)
        spans = [scored.postings.column(level).ordinal_spans(term_runs)
                 for scored, term_runs in zip(run.scored, runs)]
        built.append((level, join, sum(int((highs - lows).sum())
                                       for lows, highs in spans)))
        return join

    monkeypatch.setattr(driver_module._TopKRun, "rank_join", spying)
    return built


def exact(results):
    return [(r.node.dewey, r.score) for r in results]


def check_complete_mode(db, terms, semantics, oracle_results):
    """Complete evaluation -- the level loop with no K -- equals the
    oracle, and cut by a deadline at every level boundary it is a
    subset with identical scores."""
    engine = JoinBasedSearch(db.columnar_index)
    complete, _stats = engine.evaluate(terms, semantics)
    assert sorted((r.node.dewey, round(r.score, 9)) for r in complete) == \
        sorted((r.node.dewey, round(r.score, 9)) for r in oracle_results)
    postings = db.columnar_index.query_postings(terms)
    levels = min(p.max_len for p in postings) \
        if all(len(p) for p in postings) else 0
    full = dict(exact(complete))
    for budget in range(1, levels + 1):
        # One poll per level boundary: the budget-th poll expires.
        partial, stats = engine.evaluate(terms, semantics, deadline=Deadline(
            budget - 0.5, on_deadline="partial", clock=StepClock(0.001)))
        assert stats.partial and stats.levels_skipped > 0
        assert all(full[dewey] == score for dewey, score in exact(partial))


def check_engines_agree(db, ranking, terms, semantics, bound_mode):
    """Block engine = per-tuple engine = default plan (flat and on two
    shards) = oracle at k of 1, 3, 10, the result count and one beyond
    it; `stream` is the same order -- for the default plan, exactly
    `search(k)` up to k -- and a block stream abandoned after n results
    read no more than `search(n)`.  Complete evaluation is one more
    column (`check_complete_mode`)."""
    oracle = SemanticsOracle(db.tree, db.inverted_index, ranking)
    check_complete_mode(db, terms, semantics,
                        oracle.evaluate(terms, semantics))
    expected = sorted(scores_of(oracle.evaluate(terms, semantics)),
                      reverse=True)
    block = TopKKeywordSearch(db.columnar_index, bound_mode)
    per_tuple = PerTupleTopKSearch(db.columnar_index, bound_mode)
    default = HybridTopKSearch(db.columnar_index, bound_mode)
    sharded = ShardedDatabase.from_database(db, 2)
    for k in sorted({1, 3, 10, max(1, len(expected)), len(expected) + 1}):
        got = block.search(terms, k, semantics)
        ref = per_tuple.search(terms, k, semantics)
        assert scores_of(got) == expected[:k]
        assert scores_of(ref) == expected[:k]
        for plan, stream in (
                (default.search(terms, k, semantics),
                 default.stream(terms, semantics)),
                (sharded.search_topk(terms, k, semantics),
                 sharded.search_stream(terms, semantics))):
            assert scores_of(plan) == expected[:k]
            assert exact(itertools.islice(stream, k)) == exact(plan)
        for result in got:
            assert result.score == \
                ranking.score_result(result.witness_scores)
        stats = ExecutionStats()
        stream = block.stream(terms, semantics, stats=stats, target_k=k)
        assert scores_of(itertools.islice(stream, k)) == expected[:k]
        stream.close()
        assert stats.tuples_scanned <= got.stats.tuples_scanned
    streamed = [r.score for r in block.stream(terms, semantics)]
    assert streamed == sorted(streamed, reverse=True)
    assert scores_of(block.stream(terms, semantics)) == expected
    return oracle.evaluate(terms, semantics)


class TestEnginesAgree:
    @pytest.mark.parametrize("combiner", sorted(COMBINERS))
    @pytest.mark.parametrize("bound_mode", [GROUP, CLASSIC])
    @pytest.mark.parametrize("semantics", ["elca", "slca"])
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(tree=stacked_tree(), terms=query_terms,
           base=st.sampled_from([0.5, 0.9, 1.0]))
    def test_block_equals_per_tuple_equals_oracle(
            self, block_start, semantics, bound_mode, combiner, tree, terms,
            base):
        ranking = RankingModel(damping=DampingFunction(base),
                               combiner=COMBINERS[combiner](len(terms)))
        db = XMLDatabase.from_tree(tree, ranking=ranking)
        check_engines_agree(db, ranking, terms, semantics, bound_mode)

    @pytest.mark.parametrize("semantics", ["elca", "slca"])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(tree=stacked_tree(plant=True),
           base=st.sampled_from([0.5, 0.9, 1.0]))
    def test_planted_levels_block_equals_per_tuple_equals_oracle(
            self, block_start, rank_joins, semantics, tree, base):
        """The levels the join-first body treats specially, each planted
        and checked to be what it claims before the engines are compared:
        levels nothing joins at (always the deepest ones -- a C-node's
        ancestors are C-nodes, so no such level lies between two with
        results -- and no rank join is built for them), a joined id that
        never completes (the level still drains and erases; with
        results below it and, the root being a C-node, above), and an
        ELCA above a C-node that SLCA must reject."""
        terms = ["kx", "ky"]
        ranking = RankingModel(damping=DampingFunction(base))
        db = XMLDatabase.from_tree(tree, ranking=ranking)
        joins = {}
        JoinBasedSearch(db.columnar_index).evaluate(
            terms, semantics,
            observer=lambda level, columns, joined, emitted:
            joins.__setitem__(level, (set(joined.tolist()), emitted)))
        rank_joins.clear()
        answers = {r.node.dewey for r in check_engines_agree(
            db, ranking, terms, semantics, GROUP)}
        assert {level for level, _join, _rows in rank_joins} == \
            {level for level, (joined, _) in joins.items() if joined}
        for node in tree.find_all(lambda n: n.tag == "deep"):
            assert joins[node.level] == (set(), 0)
            assert any(emitted for level, (_, emitted) in joins.items()
                       if level < node.level)
        for node in tree.find_all(lambda n: n.tag == "erased"):
            assert node.jdewey[-1] in joins[node.level][0]
            assert node.dewey not in answers
        for node in tree.find_all(lambda n: n.tag == "above"):
            assert node.jdewey[-1] in joins[node.level][0]
            assert (node.dewey in answers) == (semantics == "elca")

    @pytest.mark.parametrize("semantics", ["elca", "slca"])
    @pytest.mark.parametrize("terms", [
        ["alpha", "beta"], ["cx", "cy"], ["alpha", "beta", "gamma"],
        ["c3a", "c3b", "c3c"], ["rare", "gamma"], ["gamma", "cx"],
    ], ids="-".join)
    def test_corpus_results_and_work(self, corpus_db, semantics, terms):
        """On the generated corpora: same top-K as the per-tuple engine
        at every k, and no more tuples than the over-read bound allows
        -- a cursor doubles its block, so it reads less than twice what
        the reference needed, plus its first block, per level."""
        index = corpus_db.columnar_index
        for bound_mode, k in itertools.product((GROUP, CLASSIC),
                                               (1, 3, 10, 10_000)):
            got = TopKKeywordSearch(index, bound_mode).search(
                terms, k, semantics)
            ref = PerTupleTopKSearch(index, bound_mode).search(
                terms, k, semantics)
            assert scores_of(got) == scores_of(ref)
            slack = 16 * len(terms) * max(1, ref.stats.levels_processed)
            assert got.stats.tuples_scanned <= \
                2 * ref.stats.tuples_scanned + slack
            if not (got.terminated_early or ref.terminated_early):
                assert got.stats.erasures == ref.stats.erasures

    def test_counts_repeat_exactly(self, dblp_db):
        engine = TopKKeywordSearch(dblp_db.columnar_index)
        first = engine.search(["cx", "cy"], 5).stats
        again = engine.search(["cx", "cy"], 5).stats
        assert first.tuples_scanned == again.tuples_scanned > 0
        assert first.threshold_checks == again.threshold_checks


@st.composite
def scored_term(draw):
    """One term's postings with random lengths and scores (ties on
    purpose), plus erasure marks (any overlap) over its ordinals."""
    depth = draw(st.integers(1, 5))
    n = draw(st.integers(1, 40))
    lengths = draw(st.lists(st.integers(1, depth), min_size=n, max_size=n))
    raw = draw(st.lists(st.sampled_from([0.1, 0.25, 0.3, 0.5, 0.5, 1.0, 2.0]),
                        min_size=n, max_size=n))
    # A few children per node, so columns have runs; a node's JDewey
    # number is its rank among the nodes of its level, which is what
    # makes every column ordered (Property 3.1).
    paths = [tuple(draw(st.integers(1, 4)) for _ in range(length))
             for length in lengths]
    number, per_level = {}, [0] * (depth + 1)
    for node in sorted({path[:end] for path in paths
                        for end in range(1, len(path) + 1)}):
        per_level[len(node)] += 1
        number[node] = 10 * len(node) + per_level[len(node)]
    seqs = sorted(tuple(number[path[:end]]
                        for end in range(1, len(path) + 1))
                  for path in paths)
    marks = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(1, 4)), max_size=3))
    return ColumnarPostings("t", seqs, raw), marks


class TestRankedInput:
    @pytest.mark.parametrize("base", [0.5, 0.9, 1.0])
    @settings(max_examples=60, deadline=None)
    @given(case=scored_term())
    def test_ranked_equals_cursor_pop_sequence(self, base, case):
        postings, marks = case
        eraser = BitmapEraser(len(postings))
        eraser.mark_many([lo for lo, _ in marks],
                         [min(len(postings), lo + width)
                          for lo, width in marks])
        scored = ScoredPostings(postings, base)
        grouped = GroupedScoredPostings(postings, base)
        for level in range(1, postings.max_len + 2):
            runs, scores = scored.ranked(level, eraser)
            numbers = postings.column(level).distinct[runs]
            assert np.all(scores[1:] <= scores[:-1])
            cursor = grouped.cursor(level, skip=erased_probe(eraser))
            popped = []
            while (item := cursor.pop()) is not None:
                popped.append((item[0], item[2]))
            got = sorted(zip(numbers.tolist(), scores.tolist()))
            assert [n for n, _ in got] == [n for n, _ in sorted(popped)]
            assert [s for _, s in got] == pytest.approx(
                [s for _, s in sorted(popped)], rel=1e-12)
            if len(scores):
                assert scored.max_damped(level) >= scores[0]

    @pytest.mark.parametrize("base", [0.5, 0.9, 1.0])
    @settings(max_examples=60, deadline=None)
    @given(case=scored_term())
    def test_level_maxima_equal_the_scalar_bound(self, base, case):
        """The cached per-level vector is, bit for bit, the list-head
        bound computed one level at a time: per sequence length the best
        score, damped to the level, maximised over the lengths reaching
        it (0 where none does); and it is computed once per postings."""
        postings, _marks = case
        scored = ScoredPostings(postings, base)
        lengths = np.unique(postings.lengths)
        best = np.array([postings.scores[postings.lengths == n].max()
                         for n in lengths])
        for level in range(1, postings.max_len + 2):
            deep = lengths >= level
            want = max(0.0, float((best[deep] * base ** (
                lengths[deep] - level)).max())) if deep.any() else 0.0
            assert scored.max_damped(level) == want
        assert ScoredPostings(postings, base).level_max is scored.level_max
        assert postings._score_order is None

    def test_order_that_rounding_broke_is_resorted(self, dblp_db):
        """`ranked` checks what it serves: hand it a per-term order that
        does not descend and the array still does, with the same
        tuples; the search over it is unchanged."""
        index = dblp_db.columnar_index
        expected = scores_of(TopKKeywordSearch(index).search(
            ["cx", "cy"], 5))
        for term in ("cx", "cy"):
            postings = index.term_postings(term)
            scored = ScoredPostings(postings, index.ranking.damping.base)
            good = scored.ranked(2)
            base, rank, *rest = postings._score_order
            postings._score_order = (base, rank[::-1].copy(), *rest)
            try:
                broken = ScoredPostings(postings, base)
                assert broken.rank[0] == rank[-1]
                runs, scores = broken.ranked(2)
                assert np.all(scores[1:] <= scores[:-1])
                assert scores.tolist() == good[1].tolist()
                assert sorted(runs.tolist()) == sorted(good[0].tolist())
                assert scores_of(TopKKeywordSearch(index).search(
                    ["cx", "cy"], 5)) == expected
            finally:
                postings._score_order = (base, rank, *rest)


class TestEmissionIsSound:
    def test_emitted_only_at_or_above_the_live_bound(self, dblp_db,
                                                     monkeypatch):
        """Every result leaves `_TopKRun.harvest` with a score >= the
        join threshold and the cross-level bound it was handed, and
        nothing emitted later outscores it."""
        from repro.algorithms import topk_keyword

        bounds = []
        original = topk_keyword._TopKRun.harvest

        def spying(run, join, level, columns, joined, run_bounds, below):
            results = original(run, join, level, columns, joined,
                               run_bounds, below)
            if results:
                bounds.append((max(join.threshold(), below),
                               [r.score for r in results]))
            return results

        monkeypatch.setattr(topk_keyword._TopKRun, "harvest", spying)
        engine = TopKKeywordSearch(dblp_db.columnar_index)
        emitted = [r.score for r in engine.stream(["gamma", "beta"])]
        assert bounds, "no result was emitted before its level drained"
        for bound, scores in bounds:
            assert min(scores) >= bound
        assert emitted == sorted(emitted, reverse=True)


@pytest.fixture(scope="module")
def planted_corpus():
    """A seeded DBLP corpus with the Figure 10 plantings: one 4 000-
    occurrence term, 10-occurrence ones, six correlated groups."""
    builder = WorkloadBuilder(high_freq=4000, low_freqs=(10,), per_cell=1,
                              max_keywords=2, correlated_entities=300,
                              seed=11)
    tree = DBLPGenerator(seed=7, n_papers=2000, abstract_words=12,
                         plan=builder.plan()).generate()
    return builder, XMLDatabase.from_tree(tree)


class TestCountsNotClocks:
    """What the join-first level saves, in tuples and spans."""

    def traced(self, db, terms, k=10):
        """(result, spans in recording order) of one traced run."""
        tracer = Tracer()
        engine = TopKKeywordSearch(db.columnar_index, tracer=tracer)
        with tracer.span("query"):
            result = engine.search(terms, k)
        return result, list(tracer.last_root().walk())

    def test_empty_join_level_pulls_nothing(self, xmark_db):
        """``rare gamma`` on XMark: three levels where both terms have a
        column and no number joins, then three that join."""
        result, spans = self.traced(xmark_db, ["rare", "gamma"], 1000)
        joins = {s.tags["level"]: s.tags["output"]
                 for s in spans if s.name == "join"}
        ranked = {s.tags["level"]: s.tags["tuples_retrieved"]
                  for s in spans if s.name == "rank_join"}
        assert sorted(joins.values()).count(0) == 3
        assert set(ranked) == {lvl for lvl, n in joins.items() if n}
        merged = sum(sum(s.tags["inputs"]) for s in spans
                     if s.name == "join")
        assert result.stats.tuples_scanned <= sum(ranked.values()) + merged

    def test_rank_joins_read_no_more_than_the_joined_runs(
            self, planted_corpus, rank_joins):
        builder, db = planted_corpus
        (query,) = builder.frequency_sweep(2)
        sizes = [len(p) for p in
                 db.columnar_index.query_postings(list(query.terms))]
        assert sizes == [10, 4000]
        result = TopKKeywordSearch(db.columnar_index).search(
            list(query.terms), 10)
        assert len(rank_joins) == result.stats.levels_processed == 5
        assert all(join.tuples_retrieved <= rows
                   for _level, join, rows in rank_joins)
        # The 4 000-list is read whole only where one C-node spans it.
        assert sum(rows for _level, _join, rows in rank_joins) \
            < 2 * sum(sizes)

    def test_join_span_precedes_its_rank_join(self, planted_corpus,
                                              rank_joins):
        """... and the star join is handed that join as its universe:
        the driver derives none (there is no `sorted_union` any more)."""
        builder, db = planted_corpus
        assert not hasattr(driver_module, "sorted_union")
        for query in builder.correlated_queries() + \
                builder.frequency_sweep(2):
            _result, spans = self.traced(db, list(query.terms))
            names = [(s.name, s.tags.get("level")) for s in spans]
            ranked = [i for i, (name, _) in enumerate(names)
                      if name == "rank_join"]
            assert ranked
            for i in ranked:
                assert names[i - 1] == ("join", names[i][1])
        assert rank_joins and all(join._values is None
                                  for _level, join, _rows in rank_joins)

    def test_default_plan_sorts_no_score_order_and_pulls_nothing(
            self, small_db, tmp_path, monkeypatch):
        """The default plan reads the per-level list-head bounds and
        nothing else of the score-ordered view: on a fresh index, in
        memory and opened from disk, no term's order is sorted and no
        star join is built until a ``topk-join`` query ranks a level."""
        built = []
        init = BlockStarJoin.__init__

        def counting_init(join, *args, **kwargs):
            built.append(join)
            init(join, *args, **kwargs)

        monkeypatch.setattr(BlockStarJoin, "__init__", counting_init)
        small_db.save(str(tmp_path / "db"))
        for db in (small_db, XMLDatabase.open(str(tmp_path / "db"))):
            postings = db.columnar_index.query_postings(["xml", "data"])
            assert db.search_topk("xml data", 3)
            assert not built
            assert all(p._score_order is None for p in postings)
            assert all(p._level_maxima is not None for p in postings)
            db.search_topk("xml data", 3, algorithm="topk-join")
            assert built
            assert all(p._score_order is not None for p in postings)
            built.clear()

    def test_complete_evaluation_builds_no_topk_state(
            self, small_db, tmp_path, monkeypatch):
        """Complete evaluation is the level loop with no K: no bound, so
        no list-head maxima, no score order and no star join -- in
        memory and opened from disk.  That it calls no `_bound_ops` is
        pinned by test_combiners.py's
        ``test_unsupported_combiner_ok_on_complete_path``."""
        built = []
        init = BlockStarJoin.__init__

        def counting_init(join, *args, **kwargs):
            built.append(join)
            init(join, *args, **kwargs)

        monkeypatch.setattr(BlockStarJoin, "__init__", counting_init)
        small_db.save(str(tmp_path / "db"))
        for db in (small_db, XMLDatabase.open(str(tmp_path / "db"))):
            postings = db.columnar_index.query_postings(["xml", "data"])
            for semantics in ("elca", "slca"):
                assert db.search("xml data", semantics)
            assert db.search_topk("xml data", 3, algorithm="join")
            assert not built
            assert all(p._level_maxima is None and p._score_order is None
                       for p in postings)

    #: What the unreduced engine scanned on the six correlated queries
    #: of `planted_corpus` (rank joins over whole columns, a full join
    #: only where a level drained), measured on the commit before the
    #: join was hoisted.
    UNREDUCED_CORRELATED_TUPLES = 25_089

    def test_tuples_scanned_repeats_and_did_not_grow(self, planted_corpus):
        builder, db = planted_corpus
        engine = TopKKeywordSearch(db.columnar_index)

        def total():
            return [engine.search(list(q.terms), 10).stats.tuples_scanned
                    for q in builder.correlated_queries()]

        first = total()
        assert total() == first
        # The hoisted join's merge volume is in there too.
        assert sum(first) <= self.UNREDUCED_CORRELATED_TUPLES


class TestDeadlineAfterTheJoin:
    """The budget runs out inside a level.  ``topk-join``: while the
    level's columns are being joined -- the rank join that follows takes
    one block, and the poll after it stops the run.  The default plan
    has no blocks: it polls at level boundaries, so the level finishes
    and the next boundary stops the run."""

    @pytest.mark.parametrize("shards", [None, 2], ids=["flat", "2shards"])
    def test_expiry_between_join_and_first_pull(self, dblp_db, shards,
                                                monkeypatch):
        db = dblp_db if shards is None else \
            ShardedDatabase.from_database(dblp_db, shards)
        full = [(r.node.dewey, r.score)
                for r in db.search_stream("gamma beta")]
        clock = StepClock(0.0)
        pulls = []
        join_level, pull = LevelRun.join_level, BlockStarJoin.pull

        def join_then_expire(run, level, columns):
            joined = join_level(run, level, columns)
            if len(joined):
                clock.now = 10.0
            return joined

        def counting_pull(join):
            pulls.append(clock.now)
            return pull(join)

        monkeypatch.setattr(LevelRun, "join_level", join_then_expire)
        monkeypatch.setattr(BlockStarJoin, "pull", counting_pull)
        with pytest.raises(DeadlineExceeded):
            db.search_topk("gamma beta", 5, algorithm="topk-join",
                           deadline=Deadline(timeout_ms=1000,
                                             on_deadline="raise",
                                             clock=clock))
        assert pulls == [10.0]      # one block, after the join
        clock.now, pulls[:] = 0.0, []
        cut = db.search_topk("gamma beta", len(full) + 1,
                             algorithm="topk-join", deadline=Deadline(
                                 timeout_ms=1000, on_deadline="partial",
                                 clock=clock))
        assert cut.partial and len(pulls) <= (shards or 1)
        got = [(r.node.dewey, r.score) for r in cut]
        assert got == full[:len(got)]
        assert all(score <= cut.bound for _dewey, score in full[len(got):])

    @pytest.mark.parametrize("shards", [None, 2], ids=["flat", "2shards"])
    def test_default_plan_stops_at_the_next_level_boundary(
            self, dblp_db, shards, monkeypatch):
        db = dblp_db if shards is None else \
            ShardedDatabase.from_database(dblp_db, shards)
        full = exact(db.search_stream("gamma beta"))
        clock = StepClock(0.0)
        finish_level = LevelRun.finish_level

        def finish_then_expire(run, level, columns, joined, *args):
            done = finish_level(run, level, columns, joined, *args)
            if len(joined):
                clock.now = 10.0
            return done

        def topk(k, policy):
            clock.now = 0.0
            return db.search_topk("gamma beta", k, deadline=Deadline(
                timeout_ms=1000, on_deadline=policy, clock=clock))

        monkeypatch.setattr(LevelRun, "finish_level", finish_then_expire)
        cut = topk(len(full) + 1, "partial")
        assert cut.partial and exact(cut) == full[:len(cut)]
        assert all(score <= cut.bound for _dewey, score in full[len(cut):])
        with pytest.raises(DeadlineExceeded):
            topk(len(cut) + 1, "raise")
        if shards is None:
            # What the expired level completed needs no further boundary.
            assert len(cut) >= 1
            assert exact(topk(len(cut), "raise")) == full[:len(cut)]
