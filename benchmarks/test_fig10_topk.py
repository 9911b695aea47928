"""Figure 10: top-10 query performance.

Panel (a), random (low-correlation) queries: the join-based top-K
algorithm is *worse* than the general join-based algorithm (few results;
in the paper the rank join degenerates into a slow full scan on top of
the join -- here every level is joined first and the rank join reads
only what joined, so what is left of the gap is its per-block overhead)
and its time falls as the low frequency -- and with it the result count
-- rises; RDIL terminates when the short list drains, so it grows with
the low frequency.

Panels (b)-(c), correlated queries: the top-K algorithm touches only a
fraction of the lists before the K-th result unblocks, while RDIL's
verification-heavy scan blows up with the keyword count.  The
`work-units` benchmarks record the paper's own currency (data items
read) in `extra_info`, since wall-clock between a numpy-vectorized
complete join and a pointer-chasing Python rank join carries a language
constant the paper's all-Java setup did not have.
"""

import pytest

from repro.bench.harness import fig9_cells, run_topk

ALGORITHMS = ("topk-join", "join", "rdil")


class TestFig10aRandom:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("low_index", [0, 1, 2, 3])
    def test_cell(self, benchmark, bench, low_index, algorithm):
        lows = bench.config.low_freqs
        if low_index >= len(lows):
            pytest.skip("scale has fewer frequency steps")
        low = lows[low_index]
        queries = [q for cell_low, cell in fig9_cells(bench, 2)
                   for q in cell if cell_low == low]
        db = bench.dblp
        bench.warm(db, queries)
        benchmark.extra_info.update(panel="fig10-a", low_freq=low,
                                    algorithm=algorithm,
                                    k=bench.config.topk)
        benchmark.pedantic(
            lambda: run_topk(db, queries, algorithm, bench.config.topk),
            rounds=2, iterations=1, warmup_rounds=1)


class TestFig10bcCorrelated:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("query_index", [0, 1, 2, 3, 4, 5])
    def test_query(self, benchmark, bench, query_index, algorithm):
        spec = bench.builder.correlated_queries()[query_index]
        db = bench.dblp
        bench.warm(db, [spec])
        benchmark.extra_info.update(panel="fig10-bc", query=spec.label,
                                    n_keywords=spec.n_keywords,
                                    algorithm=algorithm)
        benchmark.pedantic(
            lambda: run_topk(db, [spec], algorithm, bench.config.topk),
            rounds=2, iterations=1, warmup_rounds=1)


class TestFig10WorkUnits:
    """Data items touched before the top-10 is final (shape check)."""

    def test_topk_reads_fraction_on_correlated(self, benchmark, bench):
        from repro.bench.harness import fig10_work_rows

        rows = benchmark.pedantic(lambda: fig10_work_rows(bench),
                                  rounds=1, iterations=1)
        by_query = {}
        for label, algorithm, items in rows:
            by_query.setdefault(label, {})[algorithm] = items
            benchmark.extra_info[f"{label}/{algorithm}"] = items
        # Paper claim: on correlated queries the top-K join touches less
        # data than the complete evaluation for (at minimum) most
        # queries, and never an order of magnitude more.
        wins = sum(1 for d in by_query.values()
                   if d["topk-join"] < d["join"])
        assert wins >= len(by_query) - 1
        assert all(d["topk-join"] < 3 * d["join"]
                   for d in by_query.values())

    def test_rdil_work_grows_with_keywords(self, benchmark, bench):
        from repro.bench.harness import fig10_work_rows

        rows = benchmark.pedantic(lambda: fig10_work_rows(bench),
                                  rounds=1, iterations=1)
        rdil = {label: items for label, algorithm, items in rows
                if algorithm == "rdil"}
        # corr-0/1 have 2 keywords, corr-4 has 4, corr-5 has 5: RDIL's
        # lookup volume must grow superlinearly along that axis.
        assert rdil["corr-5"] > 2 * rdil["corr-0"]
