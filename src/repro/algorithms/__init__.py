"""Query algorithms: the paper's join-based family and the baselines."""

from .base import (ELCA, SLCA, EmptyResultError, ExecutionStats, ResultSet,
                   SearchResult, TopKResult, sort_by_document_order,
                   sort_by_score)
from .erasure import BitmapEraser, IntervalEraser, make_eraser
from .join_based import JoinBasedSearch
from .stack_based import StackBasedSearch
from .index_based import IndexBasedSearch
from .rdil import RDILSearch
from .topk_join import CLASSIC, GROUP, BlockStarJoin
from .topk_keyword import TopKKeywordSearch
from .hybrid import HybridTopKSearch
from .oracle import SemanticsOracle
from .explain import LevelPlan, QueryPlan, explain

__all__ = [
    "ELCA",
    "SLCA",
    "EmptyResultError",
    "ExecutionStats",
    "ResultSet",
    "SearchResult",
    "TopKResult",
    "sort_by_document_order",
    "sort_by_score",
    "BitmapEraser",
    "IntervalEraser",
    "make_eraser",
    "JoinBasedSearch",
    "StackBasedSearch",
    "IndexBasedSearch",
    "RDILSearch",
    "CLASSIC",
    "GROUP",
    "BlockStarJoin",
    "TopKKeywordSearch",
    "HybridTopKSearch",
    "SemanticsOracle",
    "LevelPlan",
    "QueryPlan",
    "explain",
]
