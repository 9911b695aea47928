"""Ablation A3 (section III-D): column compression effectiveness.

Paper claim: RLE triples collapse low-cardinality columns (upper tree
levels, context-skewed terms) dramatically, and delta blocks keep
high-cardinality columns near the Dewey lists' size -- which is how the
JDewey encoding avoids a size penalty despite its global-per-level
numbers (Table I).  Also covers the section III-E structure choice:
bitmap vs binary-searched interval erasure give identical results with
comparable cost.
"""

import pytest

from repro.algorithms.join_based import JoinBasedSearch
from repro.index.compression import (PAPER_CODECS, choose_codec,
                                     uncompressed_size)


def scheme_totals(index):
    totals = {"rle": [0, 0], "delta": [0, 0]}
    for term in index.vocabulary:
        postings = index.term_postings(term)
        for level in range(1, postings.max_len + 1):
            column = postings.column(level)
            scheme, blob = choose_codec(column.values, PAPER_CODECS)
            totals[scheme][0] += uncompressed_size(column.values)
            totals[scheme][1] += len(blob)
    return totals


@pytest.mark.parametrize("corpus", ["dblp", "xmark"])
def test_compression_ratios(benchmark, bench, corpus):
    db = bench.dblp if corpus == "dblp" else bench.xmark
    totals = benchmark.pedantic(
        lambda: scheme_totals(db.columnar_index), rounds=1, iterations=1)
    for scheme, (raw, packed) in totals.items():
        if packed:
            benchmark.extra_info[f"{scheme}_ratio"] = round(raw / packed, 2)
    rle_raw, rle_packed = totals["rle"]
    delta_raw, delta_packed = totals["delta"]
    # RLE columns (few distinct values) must compress far harder than
    # delta columns, and both must beat fixed-width storage.
    assert rle_raw / rle_packed > 4
    assert delta_raw / delta_packed > 1.5
    assert rle_raw / rle_packed > 2 * (delta_raw / delta_packed)


@pytest.mark.parametrize("mode", ["bitmap", "interval"])
def test_erasure_structures(benchmark, bench, mode):
    """Range checking (interval) vs per-row bitmap pruning, timed on the
    erasure-heavy correlated workload."""
    db = bench.dblp
    queries = bench.builder.correlated_queries()
    bench.warm(db, queries)
    engine = JoinBasedSearch(db.columnar_index, eraser_mode=mode)

    def run():
        total = 0
        for spec in queries:
            results, _ = engine.evaluate(list(spec.terms), "elca",
                                         with_scores=False)
            total += len(results)
        return total

    total = benchmark.pedantic(run, rounds=2, iterations=1,
                               warmup_rounds=1)
    benchmark.extra_info.update(mode=mode, results=total)
