"""Observability: span tracing, the metrics registry, request records.

Three instruments threaded through the query pipeline and the daemon:

* `tracing` -- `Tracer`/`Span` context managers recording where time
  goes inside one query (parse, postings fetch, column decode,
  per-level joins tagged with the section III-C plan choice, erasure,
  scoring, top-K termination), with a text tree renderer and JSONL
  export.  The span tree is the one record of a query's time:
  `phase_totals` folds it into exclusive per-phase milliseconds
  (parse/fetch/decompress/join/score/erase/rank_join/topk/other), the
  table under ``repro trace``;
* `metrics` -- `MetricsRegistry`, counters, gauges and bucketed
  histograms with Prometheus exposition; each serve daemon owns one,
  publishes into it and serves it at ``GET /metrics``;
* `distributed` -- the daemon's one record per request (`AccessLog`):
  its access-log fields plus the span tree stitched across the shard
  workers (`stitch_trace`).

Tracing defaults off (`NULL_TRACER`): a default query records no span
and no phase, and the library publishes no metric.
"""

from .account import (ResourceAccount, accounting, active_account,
                      merge_resources)
from .distributed import (AccessLog, format_access_record, make_span,
                          read_jsonl, stitch_trace)
from .metrics import (DEFAULT_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry)
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
    "Span",
    "Tracer",
    "accounting",
    "active_account",
    "format_access_record",
    "make_span",
    "merge_resources",
    "phase_totals",
    "read_jsonl",
    "render_phases",
    "render_trace",
    "spans_per_level_plan",
    "stitch_trace",
    "trace_to_jsonl",
]
