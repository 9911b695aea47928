"""Observability: span tracing, metrics registry, slow-query log.

Three independent instruments threaded through the query pipeline:

* `tracing` -- `Tracer`/`Span` context managers recording where time
  goes inside one query (parse, postings fetch, column decode,
  per-level joins tagged with the section III-C plan choice, erasure,
  scoring, top-K termination), with a text tree renderer and JSONL
  export.  The span tree is the one record of a query's time:
  `phase_totals` folds it into exclusive per-phase milliseconds
  (parse/fetch/decompress/join/score/erase/rank_join/topk/other),
  attached to slow-log entries;
* `metrics` -- a process-wide `MetricsRegistry` of counters, gauges and
  bucketed histograms with Prometheus exposition, which the serve
  daemon publishes into and ``GET /metrics`` serves;
* `slowlog` -- a bounded `SlowQueryLog` capturing query, stats, trace
  and per-phase breakdown of outliers.

Tracing and the slow log default off (`NULL_TRACER`, no slow log): a
default query records no span and no phase.
"""

from .account import (ResourceAccount, accounting, active_account,
                      merge_resources)
from .distributed import (TRACE_WIRE_VERSION, AccessLog, TraceContext,
                          TraceStore, count_spans, format_access_record,
                          make_span, new_trace_id, read_jsonl,
                          render_stitched, stitch_trace)
from .metrics import (DEFAULT_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry, get_registry)
from .slowlog import SlowQueryLog, SlowQueryRecord
from .tracing import (NULL_TRACER, PHASES, NullTracer, Span, Tracer,
                      phase_totals, render_phases, render_trace,
                      spans_per_level_plan, trace_to_jsonl)

__all__ = [
    "AccessLog",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PHASES",
    "ResourceAccount",
    "SlowQueryLog",
    "SlowQueryRecord",
    "Span",
    "TRACE_WIRE_VERSION",
    "TraceContext",
    "TraceStore",
    "Tracer",
    "accounting",
    "active_account",
    "count_spans",
    "format_access_record",
    "get_registry",
    "make_span",
    "merge_resources",
    "new_trace_id",
    "phase_totals",
    "read_jsonl",
    "render_phases",
    "render_stitched",
    "render_trace",
    "spans_per_level_plan",
    "stitch_trace",
    "trace_to_jsonl",
]
