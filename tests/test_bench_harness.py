"""Tests for the benchmark harness itself (`repro.bench.harness`).

Runs every experiment function on a miniature configuration so the
harness code paths (workload wiring, shape checkers, row formats) are
covered by the unit suite, independent of the real benchmark run.
"""

import pytest

from repro.bench.harness import (BenchConfig, Workbench,
                                 ablation_bound_rows,
                                 ablation_compression_rows,
                                 ablation_eraser_rows,
                                 ablation_join_policy_rows,
                                 check_table1_shape, fig9_cells,
                                 fig9_equal_rows, fig9_rows, fig10a_rows,
                                 fig10bc_rows, fig10_work_rows,
                                 make_engine, run_complete, run_topk,
                                 table1_rows)

TINY = BenchConfig(n_papers=250, xmark_scale=0.004, high_freq=40,
                   low_freqs=(5, 40), per_cell=1, max_keywords=3,
                   correlated_entities=60, topk=5)


@pytest.fixture(scope="module")
def tiny():
    bench = Workbench(TINY)
    bench.dblp
    bench.xmark
    return bench


class TestWorkbench:
    def test_corpora_cached(self, tiny):
        assert tiny.dblp is tiny.dblp
        assert tiny.xmark is tiny.xmark

    def test_planted_frequencies(self, tiny):
        assert tiny.dblp.document_frequency("hi40-0") == 40
        assert tiny.dblp.document_frequency("lo5-0") == 5

    def test_damping_base_applied(self, tiny):
        assert tiny.dblp.ranking.damping.base == pytest.approx(
            TINY.damping_base)

    def test_warm_builds_columns(self, tiny):
        queries = tiny.builder.frequency_sweep(2)
        tiny.warm(tiny.dblp, queries)  # must not raise

    def test_workbench_threads_the_workload_seed(self):
        import numpy as np

        config = BenchConfig.small()
        assert config.workload_seed == 11
        bench = Workbench(config)
        expected = np.random.default_rng(config.workload_seed)
        got = bench.builder.rng
        assert got.integers(0, 1 << 30) == expected.integers(0, 1 << 30)

    def test_small_config_constructor(self):
        config = BenchConfig.small()
        assert config.n_papers < BenchConfig().n_papers


class TestRunners:
    def test_run_complete_counts_results(self, tiny):
        queries = tiny.builder.frequency_sweep(2)[:1]
        counts = {a: run_complete(tiny.dblp, queries, a)
                  for a in ("join", "stack", "index")}
        assert counts["join"] == counts["stack"] == counts["index"]

    def test_run_topk_bounded_by_k(self, tiny):
        queries = tiny.builder.correlated_queries()[:1]
        total = run_topk(tiny.dblp, queries, "topk-join", 3)
        assert total <= 3 * len(queries)

    def test_make_engine_unknown(self, tiny):
        with pytest.raises(ValueError):
            make_engine(tiny.dblp, "quantum")


class TestTable1:
    def test_rows_cover_both_corpora(self, tiny):
        rows = table1_rows(tiny)
        assert {c for c, _, _ in rows} == {"DBLP", "XMark"}
        assert len(rows) == 14

    def test_shape_checker_passes(self, tiny):
        assert check_table1_shape(table1_rows(tiny)) == []

    def test_shape_checker_catches_violations(self):
        rows = []
        for corpus in ("DBLP", "XMark"):
            rows += [
                (corpus, "join-based IL", 100.0),
                (corpus, "join-based sparse", 10.0),
                (corpus, "stack-based IL", 100.0),
                (corpus, "index-based B-tree", 150.0),  # not >> stack
                (corpus, "top-K join IL", 120.0),
                (corpus, "RDIL IL", 100.0),
                (corpus, "RDIL B-tree", 90.0),
            ]
        assert check_table1_shape(rows)


class TestFigureRows:
    def test_fig9_cells_grouped_by_frequency(self, tiny):
        cells = fig9_cells(tiny, 2)
        assert [low for low, _ in cells] == sorted(TINY.low_freqs)
        for low, queries in cells:
            assert all(q.low_frequency == low for q in queries)

    def test_fig9_rows_structure(self, tiny):
        rows = fig9_rows(tiny, 2, repeats=1)
        assert len(rows) == len(TINY.low_freqs) * 3
        assert all(ms >= 0 for _, _, ms in rows)

    def test_fig9_equal_rows_structure(self, tiny):
        rows = fig9_equal_rows(tiny, TINY.low_freqs[0], repeats=1)
        ks = {k for k, _, _ in rows}
        assert ks == {2, 3}  # capped by max_keywords

    def test_fig10a_rows_structure(self, tiny):
        rows = fig10a_rows(tiny, repeats=1)
        algorithms = {a for _, a, _ in rows}
        assert algorithms == {"topk-join", "join", "rdil"}

    def test_fig10bc_rows_structure(self, tiny):
        rows = fig10bc_rows(tiny, repeats=1)
        assert len(rows) == 6 * 4  # six queries x four algorithms

    def test_fig10_work_rows_positive(self, tiny):
        rows = fig10_work_rows(tiny)
        assert all(items > 0 for _, _, items in rows)


class TestAblationRows:
    def test_join_policy_rows(self, tiny):
        rows = ablation_join_policy_rows(tiny, repeats=1)
        by_policy = {p for _, p, _, _, _ in rows}
        assert by_policy == {"dynamic", "merge", "index"}
        for _, policy, _, scanned, probes in rows:
            if policy == "merge":
                assert probes == 0
            if policy == "index":
                assert scanned == 0

    def test_bound_rows_group_never_looser(self, tiny):
        rows = ablation_bound_rows(tiny)
        by_query = {}
        for label, bound, tuples in rows:
            by_query.setdefault(label, {})[bound] = tuples
        for label, bounds in by_query.items():
            assert bounds["group"] <= bounds["classic"], label

    def test_compression_rows(self, tiny):
        rows = ablation_compression_rows(tiny)
        ratios = {scheme: value for scheme, metric, value in rows
                  if metric == "ratio"}
        assert ratios["rle"] > ratios["delta"] > 1.0

    def test_eraser_rows(self, tiny):
        rows = ablation_eraser_rows(tiny, repeats=1)
        assert {mode for _, mode, _ in rows} == {"bitmap", "interval"}
