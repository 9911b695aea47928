"""Quickstart: index an XML document and run keyword searches.

Run with::

    python examples/quickstart.py
"""

from repro import XMLDatabase
from repro.algorithms.base import EmptyResultError

BIB = """
<bib>
  <book>
    <title>XML query processing</title>
    <chapter>
      <section>keyword search semantics</section>
      <section>top-k processing over XML data</section>
    </chapter>
  </book>
  <article>
    <title>relational join algorithms</title>
    <abstract>merge join and index join for XML keyword search</abstract>
  </article>
  <article>
    <title>ranked retrieval</title>
    <abstract>scoring and top-k pruning for keyword queries</abstract>
  </article>
</bib>
"""


def main() -> None:
    db = XMLDatabase.from_xml_text(BIB)
    print(f"indexed {len(db)} nodes, depth {db.tree.depth}")
    print(f"vocabulary size: {len(db.inverted_index.vocabulary)}")

    # Complete result set under the two LCA-variant semantics.
    for semantics in ("elca", "slca"):
        print(f"\n== {semantics.upper()} results for 'xml keyword' ==")
        for r in db.search("xml keyword", semantics=semantics):
            path = ".".join(map(str, r.node.dewey))
            print(f"  <{r.node.tag}> at {path}  score={r.score:.3f}")

    # Top-K: the join-based top-K algorithm emits results best-first and
    # stops as soon as the K-th result is provably safe.
    print("\n== top-2 for 'xml keyword search' ==")
    top = db.search_topk("xml keyword search", k=2)
    for rank, r in enumerate(top, start=1):
        print(f"  #{rank}: <{r.node.tag}>  score={r.score:.3f} "
              f"witnesses={[round(w, 3) for w in r.witness_scores]}")
    print(f"  terminated early: {top.terminated_early}")

    # Progressive results: the stream yields each answer as soon as its
    # score provably dominates everything unseen.
    print("\n== streaming 'keyword search' ==")
    for rank, r in enumerate(db.search_stream("keyword search"), start=1):
        print(f"  streamed #{rank}: <{r.node.tag}> score={r.score:.3f}")
        if rank == 2:
            break  # abandoning the stream abandons the remaining work

    # Every algorithm answers the same question; pick per workload.
    for algorithm in ("join", "stack", "index"):
        results = db.search("join xml", algorithm=algorithm)
        print(f"\n'{algorithm}' found {len(results)} results for "
              f"'join xml': {[r.node.tag for r in results]}")

    # A misspelled term silently matches nothing; strict mode says so.
    try:
        db.search("xml keywrd", strict=True)
    except EmptyResultError as exc:
        print(f"\nstrict search: {exc}")


if __name__ == "__main__":
    main()
