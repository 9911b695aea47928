"""Sharded, long-lived query serving (`docs/SERVING.md`).

The library half turns one database into N **subtree-affine shards**
(`sharding`), evaluates them independently and merges the per-shard
streams back into exact global answers (`merge.ShardedDatabase`); the
service half (`daemon`) is an asyncio front-end that scatter-gathers
each request as supervised per-shard calls behind admission control.

The partitioning invariant doing all the work: every shard holds the
*full* document tree but only the postings whose level-2 ancestor
(root child) hashes to the shard, so global JDewey numbering, exact
global TF-IDF scores and every join/erasure at levels >= 2 stay
shard-local.  Only the document root needs a cross-shard protocol,
and `merge` implements it exactly (see `merge.compute_root_info`).
"""

from .sharding import partition_columnar, shard_of_dewey, subtree_shard_map
from .merge import RootInfo, ShardedDatabase, compute_root_info, merge_root
from .daemon import AdmissionError, ServeDaemon, serve
from .supervisor import (BreakerConfig, BreakerOpenError, CircuitBreaker,
                         ShardSupervisor)

__all__ = [
    "partition_columnar", "shard_of_dewey",
    "subtree_shard_map", "RootInfo", "ShardedDatabase",
    "compute_root_info", "merge_root", "AdmissionError", "ServeDaemon",
    "serve", "BreakerConfig", "BreakerOpenError", "CircuitBreaker",
    "ShardSupervisor",
]
