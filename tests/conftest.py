"""Shared fixtures: hand-built trees and generated corpora.

Corpus fixtures are session-scoped because index construction dominates
test time; tests must treat them as read-only.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import XMLDatabase, build_tree
from repro.datagen import (CorrelatedGroup, DBLPGenerator, PlantedTerm,
                           PlantingPlan, XMarkGenerator)

# A small document exercised by most algorithm tests: two keyword
# clusters ("xml", "data") with nested ELCAs so the semantics differ.
SMALL_XML = """
<bib>
  <book>
    <title>XML basics</title>
    <chapter>
      <section>introduction to XML</section>
      <section>data models and XML data</section>
    </chapter>
  </book>
  <article>
    <title>keyword search over data</title>
    <abstract>XML keyword search with top k data processing</abstract>
  </article>
  <book>
    <title>relational data</title>
  </book>
</bib>
"""


def on_threads(threads, fn, items):
    """`fn` over `items` on a pool of `threads` threads, results in
    order -- what a library user's threads, or the daemon's shard and
    event-loop threads at ``--workers 0``, do to a database.
    The library itself evaluates one query at a time, so tests that pin
    thread-safety bring their own threads."""
    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(fn, items))


class StepClock:
    """A fake clock advancing a fixed amount per call.

    `Deadline` calls the clock once at construction and once per
    `expired()` poll, so a budget of N (step) units expires after
    exactly N polls -- deterministic mid-run expiry without sleeping.
    """

    def __init__(self, step_s: float = 0.001):
        self.now = 0.0
        self.step = step_s

    def __call__(self) -> float:
        current = self.now
        self.now += self.step
        return current


def figure1_like_tree():
    """A tree in the spirit of the paper's Figure 1.

    Node r.a.b ("paper") directly nests occurrences of both keywords, so
    it is an ELCA/SLCA; its ancestor r.a contains a further "data"
    occurrence only, so r.a is an LCA but neither an ELCA nor an SLCA;
    the root gathers leftover occurrences from two branches and is an
    ELCA but not an SLCA.
    """
    return build_tree(
        ("root", [
            ("a", [
                ("x", "data survey", []),
                ("paper", [
                    ("t1", "xml overview", []),
                    ("t2", "data model", []),
                ]),
            ]),
            ("b", [
                ("y", "xml tutorial", []),
            ]),
            ("c", [
                ("z", "data cleaning", []),
            ]),
        ]))


@pytest.fixture
def small_db():
    return XMLDatabase.from_xml_text(SMALL_XML)


@pytest.fixture
def fig1_db():
    return XMLDatabase.from_tree(figure1_like_tree())


def _default_plan():
    return PlantingPlan(
        planted=[
            PlantedTerm("alpha", 30),
            PlantedTerm("beta", 60),
            PlantedTerm("gamma", 120),
            PlantedTerm("rare", 4),
        ],
        correlated=[
            CorrelatedGroup(("cx", "cy"), 40, rate=0.9),
            CorrelatedGroup(("c3a", "c3b", "c3c"), 30, rate=0.8),
        ],
    )


@pytest.fixture(scope="session")
def dblp_db():
    tree = DBLPGenerator(seed=3, n_papers=400, plan=_default_plan()).generate()
    return XMLDatabase.from_tree(tree)


@pytest.fixture(scope="session")
def xmark_db():
    tree = XMarkGenerator(seed=3, scale=0.015,
                          plan=_default_plan()).generate()
    return XMLDatabase.from_tree(tree)


@pytest.fixture(scope="session", params=["dblp", "xmark"])
def corpus_db(request, dblp_db, xmark_db):
    """Parametrized over both corpora."""
    return dblp_db if request.param == "dblp" else xmark_db
