"""Property-based end-to-end tests: random trees, random keyword
placements, every algorithm must agree with the oracle.

These catch structural edge cases the corpora never produce: keywords on
inner nodes, occurrences stacked along one path, single-child chains,
keywords only at the root, etc.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import XMLDatabase
from repro.algorithms.base import sort_by_score
from repro.algorithms.oracle import SemanticsOracle
from repro.xmltree.tree import Node, XMLTree

KEYWORDS = ["kx", "ky", "kz"]


@st.composite
def labelled_tree(draw):
    """A random tree (<= ~30 nodes) whose nodes carry random keywords."""
    shape = draw(st.recursive(
        st.just(()),
        lambda c: st.lists(c, min_size=0, max_size=4),
        max_leaves=18,
    ))
    word_picks = draw(st.lists(
        st.lists(st.sampled_from(KEYWORDS + ["noise"]), max_size=3),
        min_size=1, max_size=64))
    counter = [0]

    def build(spec):
        i = counter[0] % len(word_picks)
        counter[0] += 1
        node = Node("n", " ".join(word_picks[i]))
        for child_spec in (spec if isinstance(spec, list) else []):
            node.add_child(build(child_spec))
        return node

    return XMLTree(build(shape)).freeze()


query_terms = st.lists(st.sampled_from(KEYWORDS), min_size=1, max_size=3,
                       unique=True)


def result_key(results):
    return [(r.node.dewey, round(r.score, 9)) for r in results]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(labelled_tree(), query_terms,
       st.sampled_from(["elca", "slca"]))
def test_complete_algorithms_match_oracle(tree, terms, semantics):
    db = XMLDatabase.from_tree(tree)
    oracle = SemanticsOracle(db.tree, db.inverted_index)
    expected = result_key(oracle.evaluate(terms, semantics))
    for algorithm in ("join", "stack", "index"):
        got = result_key(db.search(terms, semantics=semantics,
                                   algorithm=algorithm))
        assert got == expected, algorithm


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(labelled_tree(), query_terms,
       st.sampled_from(["elca", "slca"]),
       st.integers(min_value=1, max_value=6))
def test_topk_algorithms_match_oracle(tree, terms, semantics, k):
    db = XMLDatabase.from_tree(tree)
    oracle = SemanticsOracle(db.tree, db.inverted_index)
    expected = [round(r.score, 9)
                for r in sort_by_score(oracle.evaluate(terms, semantics))[:k]]
    for algorithm in ("topk-join", "rdil", "hybrid"):
        got = db.search_topk(terms, k, semantics=semantics,
                             algorithm=algorithm)
        assert [round(r.score, 9) for r in got] == expected, algorithm


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(labelled_tree(), query_terms)
def test_eraser_modes_equivalent(tree, terms):
    """The engine's bulk bitmap eraser and the reference's per-term
    interval erasers (section III-E) prune to the same answers."""
    from repro.algorithms.join_based import JoinBasedSearch
    from tests.reference_join import PerCandidateJoinSearch

    db = XMLDatabase.from_tree(tree)
    bitmap, _ = JoinBasedSearch(db.columnar_index).evaluate(terms, "elca")
    interval, _ = PerCandidateJoinSearch(db.columnar_index).evaluate(
        terms, "elca")
    assert result_key(bitmap) == result_key(interval)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(labelled_tree(), query_terms,
       st.sampled_from(["merge", "index", "dynamic"]))
def test_join_policies_equivalent(tree, terms, policy):
    from repro.algorithms.join_based import JoinBasedSearch
    from repro.planner.plans import JoinPlanner

    db = XMLDatabase.from_tree(tree)
    expected = result_key(db.search(terms, algorithm="oracle"))
    got, _ = JoinBasedSearch(db.columnar_index,
                             planner=JoinPlanner(policy)).evaluate(
        terms, "elca")
    assert result_key(got) == expected
