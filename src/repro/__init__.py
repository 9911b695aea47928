"""repro -- a reproduction of "Supporting Top-K Keyword Search in XML
Databases" (Chen & Papakonstantinou, ICDE 2010).

The package implements the paper's join-based ELCA/SLCA algorithms over
a column-oriented JDewey index, the join-based top-K algorithm with the
tightened star-join bound, and the three baselines it is evaluated
against (stack-based, index-based, RDIL), together with synthetic
DBLP/XMark data generators and the benchmark harness that regenerates
the paper's tables and figures.

Quickstart::

    from repro import XMLDatabase

    db = XMLDatabase.generate_dblp(seed=7, n_papers=500)
    results = db.search("database query", semantics="elca")
    top = db.search_topk("database query", k=5)
"""

from .api import ALGORITHMS, TOPK_ALGORITHMS, BatchResult, Query, XMLDatabase
from .algorithms.base import (ELCA, SLCA, ExecutionStats, ResultSet,
                              SearchResult, TopKResult)
from .cache import CacheStats, LRUCache, QueryCache
from .obs import (MetricsRegistry, NullTracer, Tracer, render_trace,
                  spans_per_level_plan, trace_to_jsonl)
from .reliability import (DatabaseCorruptError, DatabaseFormatError,
                          Deadline, DeadlineExceeded, QueryBudget,
                          RetryExhaustedError, RetryPolicy)
from .xmltree import (Node, XMLTree, build_tree, parse_xml, parse_xml_file)

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "TOPK_ALGORITHMS",
    "Query",
    "XMLDatabase",
    "ELCA",
    "SLCA",
    "ExecutionStats",
    "ResultSet",
    "SearchResult",
    "TopKResult",
    "BatchResult",
    "CacheStats",
    "LRUCache",
    "QueryCache",
    "MetricsRegistry",
    "NullTracer",
    "Tracer",
    "render_trace",
    "spans_per_level_plan",
    "trace_to_jsonl",
    "DatabaseCorruptError",
    "DatabaseFormatError",
    "Deadline",
    "DeadlineExceeded",
    "QueryBudget",
    "RetryExhaustedError",
    "RetryPolicy",
    "Node",
    "XMLTree",
    "build_tree",
    "parse_xml",
    "parse_xml_file",
    "__version__",
]
