"""Ablation A2 (section IV-B): star-join group bound vs classic HRJN.

The paper proves the group bound is never looser; this ablation checks
that the proof cashes out as fewer tuples retrieved before the top-K
unblocks, both for the standalone operator and inside the keyword
algorithm.  The operator-level rows count tuples at the paper's own
granularity, one retrieval at a time, so they drive the per-tuple
reference join kept in `tests/reference_topk.py`; the corpus rows run
the block engine (`TopKKeywordSearch`), whose count includes the blocks
it over-reads.
"""

import pytest

from repro.algorithms.topk_join import CLASSIC, GROUP
from repro.algorithms.topk_keyword import TopKKeywordSearch
from tests.reference_topk import topk_join


def _relations(n, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    relations = []
    for r in range(3):
        ids = rng.permutation(n)
        scores = np.sort(rng.exponential(1.0, size=n))[::-1]
        relations.append([(int(i), float(s))
                          for i, s in zip(ids, scores)])
    return relations


class TestOperatorLevel:
    @pytest.mark.parametrize("bound", [GROUP, CLASSIC])
    def test_retrieval_depth(self, benchmark, bench, bound):
        relations = _relations(4000, seed=13)
        emitted, cost = benchmark.pedantic(
            lambda: topk_join(relations, k=10, bound_mode=bound),
            rounds=2, iterations=1, warmup_rounds=1)
        benchmark.extra_info.update(bound=bound, tuples=cost,
                                    emitted=len(emitted))

    def test_group_never_retrieves_more(self, benchmark, bench):
        def run():
            results = {}
            for seed in (1, 2, 3, 4, 5):
                relations = _relations(2000, seed)
                _, group_cost = topk_join(relations, 10, GROUP)
                _, classic_cost = topk_join(relations, 10, CLASSIC)
                results[seed] = (group_cost, classic_cost)
            return results

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        for seed, (group_cost, classic_cost) in results.items():
            assert group_cost <= classic_cost, seed
        benchmark.extra_info["costs"] = {
            str(seed): costs for seed, costs in results.items()}


class TestKeywordLevel:
    @pytest.mark.parametrize("bound", [GROUP, CLASSIC])
    def test_correlated_query_scan_depth(self, benchmark, bench, bound):
        db = bench.dblp
        spec = bench.builder.correlated_queries()[2]
        bench.warm(db, [spec])
        engine = TopKKeywordSearch(db.columnar_index, bound_mode=bound)
        result = benchmark.pedantic(
            lambda: engine.search(list(spec.terms), bench.config.topk),
            rounds=2, iterations=1, warmup_rounds=1)
        benchmark.extra_info.update(bound=bound,
                                    tuples=result.stats.tuples_scanned)

    def test_group_bound_no_worse_end_to_end(self, benchmark, bench):
        db = bench.dblp
        queries = bench.builder.correlated_queries()

        def run():
            costs = {}
            for spec in queries:
                bench.warm(db, [spec])
                per_bound = {}
                for bound in (GROUP, CLASSIC):
                    engine = TopKKeywordSearch(db.columnar_index,
                                               bound_mode=bound)
                    result = engine.search(list(spec.terms),
                                           bench.config.topk)
                    per_bound[bound] = result.stats.tuples_scanned
                costs[spec.label] = per_bound
            return costs

        costs = benchmark.pedantic(run, rounds=1, iterations=1)
        for label, per_bound in costs.items():
            assert per_bound[GROUP] <= per_bound[CLASSIC], label
            benchmark.extra_info[label] = per_bound
