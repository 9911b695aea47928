"""The two in-memory, hot workloads: the Fig. 9 complete-result grid and
the Fig. 10 top-10 grid."""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

import constants as C
import harness as H
from workload import (Layers, Measure, Workload, mean_of_medians,
                      repeat_timed, run_op)

SEMANTICS = ("elca", "slca")


class PassWorkload(Workload):
    """A workload that is one fixed pass over its queries, repeated: once
    in set-up to fill the caches, then until the time is up."""

    def _pass(self, measure: Measure, log) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        self._pass(Measure(), None)

    def measure(self, seconds: float, log=None) -> Measure:
        measure = Measure()
        deadline = time.perf_counter() + seconds
        while True:
            self._pass(measure, log)
            if time.perf_counter() >= deadline:
                break
        measure.busy_s = measure.main.total_ms / 1000.0
        measure.throughput_ops = measure.main.count
        return measure


class Fig9Complete(PassWorkload):
    """Complete ELCA and SLCA result sets over the frequency grid.

    Why: the level join, the planner, erasure and the column store do
    nearly all the work; storage, top-K and serving do none.
    """

    name = "fig9_complete"

    def __init__(self, *args):
        super().__init__(*args)
        self.queries = self.corpus.fig9_queries()

    def _pass(self, measure: Measure, log) -> None:
        db = self.db
        for i, (label, terms) in enumerate(self.queries):
            for sem in SEMANTICS:
                results, ms = run_op(
                    measure, log,
                    lambda: db.search(list(terms), sem, use_cache=False),
                    "search")
                measure.main.add(f"{label}/{sem}", ms)
                measure.keep((i, sem), results, len(results))

    def check(self, measure: Measure) -> int:
        """Every answer equals the stack algorithm's; a seeded sample
        also equals the naive oracle's."""
        failed = measure.unstable
        keys = sorted(measure.answers)
        sample = set(random.Random(self.seed).sample(
            keys, min(C.ORACLE_SAMPLE, len(keys))))
        for key in keys:
            i, sem = key
            terms = list(self.queries[i][1])
            got = H.dewey_set(measure.answers[key])
            ok = got == H.dewey_set(self.db.search(
                terms, sem, algorithm="stack", use_cache=False))
            if ok and key in sample:
                ok = got == H.dewey_set(self.db.search(
                    terms, sem, algorithm="oracle", use_cache=False))
            if not ok:
                failed += measure.ops[key]
        return failed

    # -- per-layer probes --------------------------------------------------

    def probes(self, layers: Layers, untraced: Measure, traced: Measure,
               log) -> None:
        db, queries = self.db, self.queries
        reps = 1 if self.smoke else 3
        index = db.columnar_index
        api = {cell: H.median(v) for cell, v in untraced.main.cells.items()}

        def engine_probe():
            from repro.algorithms.join_based import JoinBasedSearch

            cells: Dict[str, List[float]] = {}
            items = results = merges = levels = 0
            for rep in range(reps):
                for label, terms in queries:
                    for sem in SEMANTICS:
                        engine = JoinBasedSearch(index)
                        (res, stats), ms = H.timed_ms(
                            lambda: engine.evaluate(list(terms), sem))
                        cells.setdefault(f"{label}/{sem}", []).append(ms)
                        if rep == 0 and sem == "elca":
                            items += stats.tuples_scanned + stats.lookups
                            results += len(res)
                            plan = stats.per_level_plan
                            levels += len(plan)
                            merges += sum(1 for _l, alg in plan
                                          if alg == "merge")
            overhead = [api[c] - H.median(v) for c, v in cells.items()
                        if c in api]
            return {
                "algorithms.join_based.cell_geomean_ms":
                    H.cell_geomean(cells),
                "algorithms.join_based.items_per_result":
                    items / max(1, results),
                "planner.merge_level_share": merges / max(1, levels),
                "api.search_overhead_ms": sum(overhead) / len(overhead),
            }

        layers.probe(["algorithms.join_based.cell_geomean_ms",
                      "algorithms.join_based.items_per_result",
                      "planner.merge_level_share",
                      "api.search_overhead_ms"], engine_probe)

        heavy = self.corpus.correlated_queries() + [
            q for q in queries
            if q[0].endswith(f"low{self.corpus.builder.low_freqs[-1]}")]
        for mode in ("bitmap", "interval", "roaring"):
            name = f"algorithms.erasure.{mode}_ms"

            def eraser_probe(mode=mode, name=name):
                from repro.algorithms.join_based import JoinBasedSearch

                times = repeat_timed(
                    range(len(heavy)),
                    lambda i: JoinBasedSearch(index, eraser_mode=mode)
                    .evaluate(list(heavy[i][1]), "elca"), reps)
                return {name: mean_of_medians(times)}

            layers.probe([name], eraser_probe)

        def fetch_probe():
            times = repeat_timed(
                range(len(queries)),
                lambda i: index.query_postings(list(queries[i][1])),
                reps + 2)
            return {"index.columnar.fetch_ms": mean_of_medians(times)}

        layers.probe(["index.columnar.fetch_ms"], fetch_probe)

        def sort_probe():
            from repro.algorithms.base import sort_by_score

            answers = [untraced.answers[(i, "elca")]
                       for i in range(len(queries))]
            times = repeat_timed(range(len(answers)),
                                 lambda i: sort_by_score(answers[i]),
                                 reps + 2)
            return {"scoring.sort_ms": mean_of_medians(times)}

        layers.probe(["scoring.sort_ms"], sort_probe)

        def comparator(module: str, cls: str, name: str):
            def probe():
                import importlib

                engine_cls = getattr(importlib.import_module(module), cls)
                cells: Dict[str, List[float]] = {}
                for label, terms in queries:
                    _, ms = H.timed_ms(
                        lambda: engine_cls(db.inverted_index).evaluate(
                            list(terms), "elca"))
                    cells.setdefault(label, []).append(ms)
                return {name: H.cell_geomean(cells)}
            layers.probe([name], probe)

        comparator("repro.algorithms.stack_based", "StackBasedSearch",
                   "algorithms.stack_based.cell_geomean_ms")
        comparator("repro.algorithms.index_based", "IndexBasedSearch",
                   "algorithms.index_based.cell_geomean_ms")


class Fig10TopK(PassWorkload):
    """Top-10 with the default algorithm over correlated and random
    queries, each correlated one followed by join-then-truncate.

    Why: the rank join, the score-sorted postings and scoring do most of
    the work and the level loop little; the interleaved join run gives a
    ratio that host drift cannot move.
    """

    name = "fig10_topk"

    def __init__(self, *args):
        super().__init__(*args)
        self.queries = self.corpus.fig10_queries()
        self.n_correlated = len(self.corpus.correlated_queries())

    def _pass(self, measure: Measure, log) -> None:
        db = self.db
        join = measure.samples("join")
        for i, (label, terms) in enumerate(self.queries):
            top, ms = run_op(
                measure, log,
                lambda: db.search_topk(list(terms), C.TOPK), "topk")
            measure.main.add(label, ms)
            measure.keep((i, "default"), top.results, len(top.results))
            if i < self.n_correlated:
                top, ms = run_op(
                    measure, log,
                    lambda: db.search_topk(list(terms), C.TOPK,
                                           algorithm="join"), "topk-join")
                join.add(label, ms)
                measure.keep((i, "join"), top.results, len(top.results))

    def check(self, measure: Measure) -> int:
        """The top-10 score multiset equals the 10 best of the complete
        join."""
        failed = measure.unstable
        best: Dict[int, Tuple[float, ...]] = {}
        for key in sorted(measure.answers):
            i, _kind = key
            if i not in best:
                complete = self.db.search(list(self.queries[i][1]),
                                          use_cache=False)
                best[i] = H.score_multiset(complete)[:C.TOPK]
            if H.score_multiset(measure.answers[key]) != best[i]:
                failed += measure.ops[key]
        return failed

    def ratios(self, measure: Measure) -> Dict[str, float]:
        """Default top-K ms over join-then-truncate ms, per correlated
        query."""
        join = measure.extra["join"].cells
        return {label: H.median(measure.main.cells[label]) / H.median(v)
                for label, v in join.items()}

    # -- per-layer probes --------------------------------------------------

    def probes(self, layers: Layers, untraced: Measure, traced: Measure,
               log) -> None:
        db, queries = self.db, self.queries
        index = db.columnar_index
        correlated = queries[:self.n_correlated]
        reps = 1 if self.smoke else 2
        api = {cell: H.median(v) for cell, v in untraced.main.cells.items()}

        ratios = self.ratios(untraced)
        layers.set("topk_over_join", H.geomean(ratios.values()))
        by_k: Dict[int, List[float]] = {}
        for label, terms in correlated:
            by_k.setdefault(len(terms), []).append(ratios[label])
        for k in range(2, C.MAX_KEYWORDS + 1):
            layers.set(f"topk_over_join.k{k}", H.geomean(by_k.get(k, [])))
        layers.set("algorithms.join_based.truncate_geomean_ms",
                   H.cell_geomean(untraced.extra["join"].cells))

        def engine_probe():
            from repro.algorithms.topk_keyword import TopKKeywordSearch

            cells: Dict[str, List[float]] = {}
            tuples = 0
            corr_ms = 0.0
            for rep in range(reps):
                for i, (label, terms) in enumerate(queries):
                    top, ms = H.timed_ms(
                        lambda: TopKKeywordSearch(index).search(
                            list(terms), C.TOPK))
                    cells.setdefault(label, []).append(ms)
                    if i < self.n_correlated:
                        corr_ms += ms
                        if rep == 0:
                            tuples += top.stats.tuples_scanned
            overhead = [api[c] - H.median(v) for c, v in cells.items()]
            return {
                "algorithms.topk_keyword.cell_geomean_ms":
                    H.cell_geomean(cells),
                "algorithms.topk_keyword.tuples_scanned": tuples,
                "algorithms.topk_keyword.us_per_tuple":
                    corr_ms / reps * 1000.0 / max(1, tuples),
                "api.topk_overhead_ms": sum(overhead) / len(overhead),
            }

        layers.probe(["algorithms.topk_keyword.cell_geomean_ms",
                      "algorithms.topk_keyword.tuples_scanned",
                      "algorithms.topk_keyword.us_per_tuple",
                      "api.topk_overhead_ms"], engine_probe)

        def bound_probe():
            from repro.algorithms.topk_keyword import TopKKeywordSearch

            totals = {}
            for mode in ("classic", "group"):
                totals[mode] = sum(
                    TopKKeywordSearch(index, bound_mode=mode).search(
                        list(terms), C.TOPK).stats.tuples_scanned
                    for _label, terms in correlated)
            return {"algorithms.topk_join.classic_over_group_tuples":
                    totals["classic"] / max(1, totals["group"])}

        layers.probe(["algorithms.topk_join.classic_over_group_tuples"],
                     bound_probe)

        def scored_probe():
            from repro.index.scored import ScoredPostings

            postings = [index.query_postings(list(t)) for _l, t in queries]
            times = repeat_timed(
                range(len(postings)),
                lambda i: [ScoredPostings(p, C.DAMPING_BASE)
                           for p in postings[i]], reps + 1)
            return {"index.scored.build_ms": mean_of_medians(times)}

        layers.probe(["index.scored.build_ms"], scored_probe)

        def hybrid_probe():
            from repro.algorithms.hybrid import HybridTopKSearch

            cells: Dict[str, List[float]] = {}
            plans: List[str] = []
            for label, terms in queries:
                engine = HybridTopKSearch(index)
                _, ms = H.timed_ms(
                    lambda: engine.search(list(terms), C.TOPK))
                cells.setdefault(label, []).append(ms)
                plans += list(getattr(engine, "plan_trace", []))
            return {"algorithms.hybrid.cell_geomean_ms":
                    H.cell_geomean(cells),
                    "algorithms.hybrid.topk_plan_share":
                    plans.count("topk") / max(1, len(plans))}

        layers.probe(["algorithms.hybrid.cell_geomean_ms",
                      "algorithms.hybrid.topk_plan_share"], hybrid_probe)

        def rdil_probe():
            from repro.algorithms.rdil import RDILSearch

            cells: Dict[str, List[float]] = {}
            for label, terms in queries:
                _, ms = H.timed_ms(
                    lambda: RDILSearch(db.inverted_index).search(
                        list(terms), C.TOPK))
                cells.setdefault(label, []).append(ms)
            return {"algorithms.rdil.cell_geomean_ms": H.cell_geomean(cells)}

        layers.probe(["algorithms.rdil.cell_geomean_ms"], rdil_probe)
