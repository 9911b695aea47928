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

from itertools import islice
from typing import Dict, List, Sequence

import numpy as np

from ..index.columnar import ColumnarPostings
from ..xmltree.nodetable import NodeTable


def subtree_shard_map(nodes, n_shards: int) -> Dict[int, int]:
    """Level-2 JDewey number -> shard id, by root-child ordinal.

    Round-robin over the root's children in document order, read off
    the node table (`nodes`, or the table of an encoded tree): child
    ``i`` goes to shard ``i % n_shards``.  With skewed subtree sizes
    (DBLP's Zipf-ish venues) round-robin spreads the big subtrees
    across shards instead of clustering them the way a range split
    would.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    table = NodeTable.of(nodes).load()
    children = np.flatnonzero(table.level == 2)
    return dict(zip(table.number[children].tolist(),
                    ((table.ordinal[children] - 1) % n_shards).tolist()))


def row_shards(nodes, n_shards: int) -> np.ndarray:
    """Every node-table row's shard: its level-2 ancestor's
    (`subtree_shard_map`'s rule), 0 for the root.  One top-down pass,
    a level a step, over the table's ``parent`` column."""
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    table = NodeTable.of(nodes).load()
    owner = np.where(table.level == 2, (table.ordinal - 1) % n_shards,
                     0).astype(np.int32)
    by_level = np.argsort(table.level, kind="stable")
    ends = np.cumsum(np.bincount(table.level))
    for level in range(3, len(ends)):
        rows = by_level[ends[level - 1]: ends[level]]
        owner[rows] = owner[table.parent[rows]]
    return owner


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
                       nodes,
                       n_shards: int) -> List[Dict[str, ColumnarPostings]]:
    """Split per-term columnar postings into `n_shards` filtered sets.

    Each occurrence keeps its global JDewey sequence and its exact
    global score; terms with no occurrence in a shard are simply
    absent from that shard's dict (which is what lets the front-end
    prune whole shards with an O(1) vocabulary test).
    """
    owners = shard_owners(postings_by_term, nodes, n_shards)
    return [shard_postings(postings_by_term, owners, sid)
            for sid in range(n_shards)]


def shard_owners(postings_by_term: Dict[str, ColumnarPostings],
                 nodes, n_shards: int) -> Dict[str, np.ndarray]:
    """Per term, the shard of each of its occurrences, in postings
    order -- what `shard_postings` filters by.  Postings holding rows
    of the table read their owners off `row_shards`; any other read
    their level-2 column values.  Nothing is cached on the postings."""
    table = NodeTable.of(nodes).load()
    owner_of_row = row_shards(table, n_shards)
    owners: Dict[str, np.ndarray] = {}
    for term, postings in postings_by_term.items():
        if getattr(postings, "nodes", None) is table:
            owners[term] = owner_of_row[postings.rows]
            continue
        owner = np.zeros(len(postings), dtype=np.int32)
        if postings.max_len >= 2:
            level2 = next(islice(postings.level_values(), 1, None))
            owner[postings.lengths >= 2] = owner_of_row[
                table.rows_at(2, level2)]
        owners[term] = owner
    return owners


def shard_postings(postings_by_term: Dict[str, ColumnarPostings],
                   owners: Dict[str, np.ndarray],
                   sid: int) -> Dict[str, ColumnarPostings]:
    """Shard `sid`'s filtered postings (one element of
    `partition_columnar`), built alone so a writer can hold one shard's
    postings at a time."""
    part: Dict[str, ColumnarPostings] = {}
    for term, postings in postings_by_term.items():
        ordinals = np.flatnonzero(owners[term] == sid)
        if len(ordinals):
            part[term] = postings.select(ordinals)
    return part
