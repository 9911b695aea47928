"""Tests for the benchmark harness itself (`repro.bench.harness`).

Runs every experiment function on a miniature configuration so the
harness code paths (workload wiring, checks, row formats, the report's
exit code and its marker rewrite) are covered by the unit suite,
independent of the real benchmark run.
"""

import os
import re

import pytest

from repro.bench import harness
from repro.bench.harness import (BenchConfig, Workbench,
                                 ablation_bound_rows,
                                 ablation_compression_rows,
                                 ablation_eraser_rows,
                                 ablation_join_policy_rows,
                                 check_table1_shape, fig9_cells,
                                 fig9_equal_rows, fig9_rows, fig10a_rows,
                                 fig10bc_rows, fig10_work_rows,
                                 make_engine, rewrite, run_complete,
                                 run_topk, table1_rows)

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
        assert all(ms >= 0 for _, _, ms, _ in rows)

    def test_fig9_equal_rows_structure(self, tiny):
        rows = fig9_equal_rows(tiny, TINY.low_freqs[0], repeats=1)
        ks = {k for k, _, _, _ in rows}
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
        assert {corpus for corpus, *_ in rows} == {"DBLP", "XMark"}
        ratios = {scheme: ratio for corpus, scheme, _, _, ratio in rows
                  if corpus == "DBLP"}
        assert ratios["rle"] > ratios["delta"] > 1.0

    def test_eraser_rows(self, tiny):
        rows = ablation_eraser_rows(tiny, repeats=1)
        assert [(workload, eraser) for workload, eraser, _ in rows] == \
            [("correlated", "bitmap")]
        assert rows[0][2] > 0


def _sizes(**kib):
    """Table I rows that satisfy every size claim, `kib` overriding."""
    sizes = {"join-based IL": 100.0, "join-based sparse": 10.0,
             "stack-based IL": 100.0, "index-based B-tree": 500.0,
             "top-K join IL": 120.0, "RDIL IL": 100.0, "RDIL B-tree": 90.0}
    sizes.update({name.replace("_", " "): v for name, v in kib.items()})
    return [(corpus, structure, value) for corpus in ("DBLP", "XMark")
            for structure, value in sizes.items()]


#: One doctored row set per ``check_*``, each breaking its claim.
DOCTORED = {
    "check_engines_agree": ([("c", "join", 1), ("c", "stack", 2),
                             ("c", "index", 1)],),
    "check_table1_rdil": (_sizes(RDIL_IL=101.0),),
    "check_table1_shape": (_sizes(**{"join-based sparse": 60.0}),),
    "check_fig9_shape": ({2: [(10, "join", 1.0, 1), (10, "stack", 1.0, 1),
                              (10, "index", 1.0, 1), (40, "join", 3.0, 1),
                              (40, "stack", 2.0, 1), (40, "index", 2.0, 1)]},
                         40),
    "check_fig9_equal_shape": ({100: [(2, "join", 1.0, 1),
                                      (2, "stack", 3.0, 1),
                                      (2, "index", 2.0, 1)]},),
    "check_fig10a_shape": ([(10, "topk-join", 1.0), (100, "topk-join", 2.0)],),
    "check_fig10_work": ([(q, a, n) for q in ("corr-0", "corr-5")
                          for a, n in (("topk-join", 9), ("join", 5),
                                       ("rdil", 10))],),
    "check_join_policy": ([(10, "dynamic", 0.1, 300, 2),
                           (10, "merge", 0.1, 400, 0),
                           (10, "index", 0.1, 0, 9)],),
    "check_bound_rows": ([("q", "group", 5), ("q", "classic", 4)],),
    "check_compression": ([("DBLP", "rle", 10.0, 1.0, 10.0),
                           ("DBLP", "delta", 10.0, 2.0, 5.0)],),
    "check_lazy_io": ([("k x start level", "q", 4),
                       ("cold columns read", "q", 4),
                       ("hot columns read", "q", 0),
                       ("answers equal eager", "q", "no")],),
    "check_k_sweep": ([(1, 10, 1), (10, 5, 10), (50, 20, 50)],),
    "check_plan_oracle": ([("always-eager ms", 10.0),
                           ("per-level oracle ms", 9.0)],),
}


class TestChecks:
    def test_every_check_has_a_doctored_case(self):
        checks = {name for name in dir(harness) if name.startswith("check_")}
        assert checks == set(DOCTORED)

    @pytest.mark.parametrize("name", sorted(DOCTORED))
    def test_check_fails_on_doctored_rows(self, name):
        check = getattr(harness, name)
        verdict = check(*DOCTORED[name])
        assert verdict, name
        assert verdict.number and check.claim and check.section
        assert check.gate in (harness.ANY_SCALE, harness.FULL_SCALE,
                              harness.NEVER)


EXPERIMENTS = os.path.join(os.path.dirname(__file__), os.pardir,
                           "EXPERIMENTS.md")
SPAN = re.compile(r"<!-- table:([\w-]+) -->.*?<!-- /table:\1 -->", re.S)


def _prose(text):
    return SPAN.sub("", text)


class TestReport:
    def test_main_rewrites_every_table_and_exits_0(self, tmp_path, capsys):
        committed = open(EXPERIMENTS, encoding="utf-8").read()
        path = tmp_path / "EXPERIMENTS.md"
        path.write_text(committed, encoding="utf-8")
        assert harness.main(TINY, write=str(path)) == 0
        written = path.read_text(encoding="utf-8")
        assert _prose(written) == _prose(committed)
        assert "| DBLP | join-based IL |" in written
        assert "### claims" in capsys.readouterr().out

    def test_main_exits_1_when_an_invariant_fails(self, monkeypatch,
                                                  capsys):
        def disagreeing(bench, n_keywords, repeats=3):
            rows = fig9_rows(bench, n_keywords, repeats=1)
            low, algorithm, ms, results = rows[0]
            return [(low, algorithm, ms, results + 1)] + rows[1:]

        monkeypatch.setattr(harness, "fig9_rows", disagreeing)
        assert harness.main(TINY) == 1
        assert "check_engines_agree" in capsys.readouterr().err


TABLES = {"a": "| x |\n| --- |\n| 1 |\n", "b": "| y |\n| --- |\n| 2 |\n"}
DOC = ("# Title\n\nProse before.\n<!-- table:a -->\nstale\n"
       "<!-- /table:a -->\nMiddle.\n<!-- table:b --><!-- /table:b -->\n"
       "Trailing prose.\n")


class TestRewrite:
    def test_prose_stays_and_a_second_write_is_a_no_op(self):
        once = rewrite(DOC, TABLES)
        assert "stale" not in once and TABLES["b"] in once
        assert _prose(once) == _prose(DOC)
        assert rewrite(once, TABLES) == once

    @pytest.mark.parametrize("doc", [
        DOC + "<!-- table:a -->\n",
        DOC.replace("<!-- /table:a -->", ""),
        DOC + "<!-- table:c -->\n<!-- /table:c -->\n",
        DOC.replace("<!-- table:b --><!-- /table:b -->", ""),
    ], ids=["unclosed", "unbalanced", "unknown-table", "table-unmarked"])
    def test_marker_errors_write_nothing(self, doc, tmp_path, monkeypatch):
        path = tmp_path / "E.md"
        path.write_text(doc, encoding="utf-8")
        monkeypatch.setattr(harness, "report", lambda bench: ([], TABLES))
        with pytest.raises(ValueError):
            harness.main(TINY, write=str(path))
        assert path.read_text(encoding="utf-8") == doc
