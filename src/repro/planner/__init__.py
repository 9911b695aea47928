"""Query planning: join-algorithm selection (section III-C)."""

from .plans import (DYNAMIC, INDEX, MERGE, POLICIES, JoinPlanner,
                    index_intersect, merge_intersect)

__all__ = [
    "DYNAMIC",
    "INDEX",
    "MERGE",
    "POLICIES",
    "JoinPlanner",
    "index_intersect",
    "merge_intersect",
]
