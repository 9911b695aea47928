"""Subtree-affine index partitioning.

A shard is *not* a sub-document: renumbering children would break the
global JDewey/Dewey coordinates every stored posting and score is
expressed in.  Instead every shard keeps the whole tree and a filtered
posting set -- occurrence ``o`` lands in the shard of its level-2
ancestor (the root child whose subtree contains it), chosen as
``child_ordinal % n_shards``.  Occurrences directly on the root
(length-1 JDewey sequences, Dewey id ``(1,)``) land in shard 0.

Why this affinity is the right one (and term-hashing is not): the
join-based algorithms evaluate one level at a time, and at every level
``l >= 2`` a candidate's occurrences, C-node containment test and
erasure ranges all live inside a single root-child subtree.  Routing
by subtree therefore keeps the entire LCA evaluation below the root
shard-local -- a shard-local result at level >= 2 is already globally
exact -- while hashing *terms* across shards would split every join
between machines.  The root itself (level 1) aggregates occurrences
from every subtree; `repro.serve.merge` reconstructs it from cheap
per-shard summaries.

Scores are untouched by partitioning: the persistence layer bakes the
exact global TF-IDF scores into the postings at save time, so a
shard-filtered posting carries the same score it had in the unsharded
index and no per-shard document-frequency skew can occur.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..index.columnar import ColumnarPostings
from ..xmltree.tree import XMLTree


def subtree_shard_map(tree: XMLTree, n_shards: int) -> Dict[int, int]:
    """Level-2 JDewey number -> shard id, by root-child ordinal.

    Round-robin over the root's children in document order: child ``i``
    goes to shard ``i % n_shards``.  With skewed subtree sizes (DBLP's
    Zipf-ish venues) round-robin spreads the big subtrees across
    shards instead of clustering them the way a range split would.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    return {child.jdewey[-1]: i % n_shards
            for i, child in enumerate(tree.root.children)}


def shard_of_dewey(dewey: Sequence[int], n_shards: int) -> int:
    """Shard of a node identified by its Dewey id.

    ``dewey[0]`` is the root's constant ``1``; ``dewey[1]`` is the
    1-based ordinal of the root child whose subtree holds the node, so
    this agrees with `subtree_shard_map` (0-based ordinal mod n).  The
    root itself, ``(1,)``, goes to shard 0.
    """
    if len(dewey) < 2:
        return 0
    return (dewey[1] - 1) % n_shards


def partition_columnar(postings_by_term: Dict[str, ColumnarPostings],
                       tree: XMLTree,
                       n_shards: int) -> List[Dict[str, ColumnarPostings]]:
    """Split per-term columnar postings into `n_shards` filtered sets.

    Each occurrence keeps its global JDewey sequence and its exact
    global score; terms with no occurrence in a shard are simply
    absent from that shard's dict (which is what lets the front-end
    prune whole shards with an O(1) vocabulary test).
    """
    level2_shard = subtree_shard_map(tree, n_shards)
    shards: List[Dict[str, ColumnarPostings]] = [
        {} for _ in range(n_shards)]
    for term, postings in postings_by_term.items():
        scores = postings.scores
        per_shard_seqs: List[List[tuple]] = [[] for _ in range(n_shards)]
        per_shard_scores: List[List[float]] = [[] for _ in range(n_shards)]
        for ordinal, seq in enumerate(postings.seqs):
            sid = 0 if len(seq) == 1 else level2_shard[seq[1]]
            per_shard_seqs[sid].append(seq)
            per_shard_scores[sid].append(float(scores[ordinal]))
        for sid in range(n_shards):
            if per_shard_seqs[sid]:
                shards[sid][term] = ColumnarPostings(
                    term, per_shard_seqs[sid], per_shard_scores[sid])
    return shards
