"""The bulk generators against the per-element reference
(`tests/reference_datagen.py`).

`DBLPGenerator` and `XMarkGenerator` draw every sentence of a corpus in
one walk per sampler, plant the terms with one tf draw per planted term
and write the document flat, piece by piece.  Whatever the parameters,
the document must be the reference's byte for byte and
``realized_df`` its dict.
"""

import hashlib

import numpy as np
import pytest

from repro.datagen import (CorrelatedGroup, DBLPGenerator, PlantedTerm,
                           PlantingPlan, TextSource, XMarkGenerator)
from repro.datagen.workload import WorkloadBuilder
from tests.reference_datagen import (ScalarTextSource, dblp_document,
                                     xmark_document)


def assert_matches_reference(generator, reference):
    document = generator.generate().document
    want, realized = reference(generator)
    assert document == want
    assert generator.realized_df == realized


def plan(tf_range=(1, 3), df=25, rate=0.7):
    """Planted and correlated terms, one needing escapes."""
    return PlantingPlan(
        [PlantedTerm("needle", df, tf_range), PlantedTerm("a&b<c>", 4),
         PlantedTerm("hay", df // 2 + 1, tf_range)],
        [CorrelatedGroup(("qx", "qy", "qz"), 12, rate, tf_range),
         CorrelatedGroup(("solo",), 3, 1.0)])


@pytest.mark.parametrize("seed", [0, 7, 11])
@pytest.mark.parametrize("n_papers", [1, 37, 400])
def test_dblp(seed, n_papers):
    assert_matches_reference(DBLPGenerator(
        seed=seed, n_papers=n_papers, abstract_words=6, plan=plan()),
        dblp_document)


@pytest.mark.parametrize("seed", [0, 7, 11])
@pytest.mark.parametrize("scale", [0.0001, 0.002, 0.005])
def test_xmark(seed, scale):
    assert_matches_reference(XMarkGenerator(
        seed=seed, scale=scale, plan=plan()), xmark_document)


@pytest.mark.parametrize("kwargs", [
    {"n_papers": 1},
    {"n_papers": 1, "abstract_words": 3, "max_authors": 1},
    {"n_papers": 60, "abstract_words": 0},
    {"n_papers": 60, "title_words": 0},
    {"n_papers": 60, "title_words": 0, "plan": plan()},
    {"n_papers": 60, "title_words": 0, "abstract_words": 5,
     "plan": plan(tf_range=(0, 2))},
    {"n_papers": 50, "plan": plan(tf_range=(1, 1))},
    {"n_papers": 50, "abstract_words": 4, "plan": plan(tf_range=(0, 3))},
    {"n_papers": 50, "plan": plan(tf_range=(0, 0))},
    {"n_papers": 20, "abstract_words": 2, "plan": plan(df=10 ** 6)},
    {"n_papers": 80, "plan": plan(rate=0.0)},
    {"n_papers": 80, "plan": plan(rate=1.0)},
    {"n_papers": 10, "n_conferences": 1, "n_years": 1},
    {"n_papers": 10, "n_conferences": 30, "n_years": 3},
    {"n_papers": 10, "vocab_size": 1},
], ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()
                               if k != "plan"))
def test_dblp_edge_cases(kwargs):
    assert_matches_reference(DBLPGenerator(seed=5, **kwargs), dblp_document)


@pytest.mark.parametrize("kwargs", [
    {"description_words": 0},
    {"description_words": 0, "plan": plan(tf_range=(0, 2))},
    {"plan": plan(tf_range=(0, 0))},
    {"plan": plan(df=10 ** 6)},
    {"plan": plan(rate=0.0)},
    {"plan": plan(rate=1.0)},
], ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()
                               if k != "plan") or "plan")
def test_xmark_edge_cases(kwargs):
    assert_matches_reference(XMarkGenerator(seed=3, scale=0.0005, **kwargs),
                             xmark_document)


def test_sentences_straddling_a_refill():
    """Titles of 1 000 words cross the 65 536-word buffer: the sentence
    that does not fit draws a fresh buffer, in bulk as one at a time."""
    assert_matches_reference(DBLPGenerator(
        seed=2, n_papers=150, title_words=1000, abstract_words=7,
        plan=plan()), dblp_document)


def test_draw_refills_where_one_sentence_at_a_time_does():
    rng = np.random.default_rng(0)
    lengths = rng.integers(0, 9000, size=60)
    lengths[[3, 4, 17]] = 0
    lengths[[10, 40]] = [70_000, 65_536]     # longer than a buffer
    bulk = TextSource(seed=9, vocab_size=50)
    scalar = ScalarTextSource(seed=9, vocab_size=50)
    ids = bulk.draw(lengths)
    assert ids.dtype == np.int64 and len(ids) == lengths.sum()
    words = [bulk.words[i] for i in ids]
    assert words == [w for n in lengths.tolist()
                     for w in scalar.words_batch(n)]
    assert bulk.draw([5, 0, 3]).tolist() == [
        bulk.words.index(w) for n in (5, 0, 3)
        for w in scalar.words_batch(n)]


@pytest.mark.parametrize("lo, hi", [(1, 4), (0, 2), (3, 500), (0, 1)])
def test_one_tf_draw_is_the_scalar_draws(lo, hi):
    """`plant` draws a planted term's tfs at once; numpy's stream is the
    one a draw per pick takes, and leaves the generator where those
    leave it."""
    bulk, scalar = np.random.default_rng(4), np.random.default_rng(4)
    for size in (1, 7, 1001):
        assert bulk.integers(lo, hi + 1, size=size).tolist() == \
            [int(scalar.integers(lo, hi + 1)) for _ in range(size)]
        assert bulk.random() == scalar.random()


#: sha256 of the benchmark's 20 000-paper seed-7 DBLP document.
BENCH_DOCUMENT_SHA256 = \
    "ca8c46c1227243ab38bd9f84c4bca18601c3b3c43d7dca1424aa312b7dfc293c"


def test_the_benchmark_document_is_pinned():
    builder = WorkloadBuilder(high_freq=4000, low_freqs=(10, 100, 1000, 4000),
                              per_cell=2, max_keywords=5,
                              correlated_entities=2500, seed=11)
    document = DBLPGenerator(seed=7, n_papers=20_000, abstract_words=12,
                             plan=builder.plan()).generate().document
    assert hashlib.sha256(document).hexdigest() == BENCH_DOCUMENT_SHA256
