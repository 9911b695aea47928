"""Observability: span tracing, metrics registry, slow-query log, plan audit.

Four independent instruments threaded through the query pipeline:

* `tracing` -- `Tracer`/`Span` context managers recording where time
  goes inside one query (parse, postings fetch, column decode,
  per-level joins tagged with the section III-C plan choice, erasure,
  scoring, top-K termination), with a text tree renderer and JSONL
  export.  The span tree is the one record of a query's time:
  `phase_totals` folds it into exclusive per-phase milliseconds
  (parse/fetch/decompress/join/score/erase/rank_join/topk/other),
  published as ``repro_phase_time_ms`` and attached to slow-log entries;
* `metrics` -- a process-wide `MetricsRegistry` of counters, gauges and
  p50/p95/p99 histograms, with `snapshot()` and Prometheus exposition;
* `slowlog` -- a bounded `SlowQueryLog` capturing query, stats, trace
  and per-phase breakdown of outliers;
* `audit` -- EXPLAIN ANALYZE for the section III-C optimizer:
  per-level predicted vs. actual cardinality, q-error and plan regret
  (`PlanAudit`, via ``explain(analyze=True)`` / ``repro audit``).

Tracing and the slow log default off (`NULL_TRACER`, no slow log): a
default query records no span and no phase.
"""

from .account import (ResourceAccount, accounting, active_account,
                      merge_resources)
from .audit import (AuditingJoinPlanner, JoinObservation, LevelAudit,
                    PlanAudit, PlanAuditor, audit_query, q_error)
from .doctor import (DOCTOR_SCHEMA, doctor_report, format_doctor_report,
                     run_checks)
from .distributed import (TRACE_WIRE_VERSION, AccessLog, TailSampler,
                          TraceContext, TraceStore, count_spans,
                          format_access_record, make_span, new_trace_id,
                          read_jsonl, render_stitched, span_to_wire,
                          stitch_trace)
from .metrics import (DEFAULT_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry, get_registry)
from .slo import (DEFAULT_WINDOWS_S, SLO_SCHEMA, SLOConfig, SLOTracker,
                  format_slo_report, report_from_records)
from .slowlog import SlowQueryLog, SlowQueryRecord
from .tracing import (NULL_TRACER, PHASES, NullTracer, Span, Tracer,
                      phase_totals, render_phases, render_trace,
                      spans_per_level_plan, trace_to_jsonl)

__all__ = [
    "AccessLog",
    "AuditingJoinPlanner",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_WINDOWS_S",
    "DOCTOR_SCHEMA",
    "Gauge",
    "Histogram",
    "JoinObservation",
    "LevelAudit",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PHASES",
    "PlanAudit",
    "PlanAuditor",
    "ResourceAccount",
    "SLOConfig",
    "SLOTracker",
    "SLO_SCHEMA",
    "SlowQueryLog",
    "SlowQueryRecord",
    "Span",
    "TRACE_WIRE_VERSION",
    "TailSampler",
    "TraceContext",
    "TraceStore",
    "Tracer",
    "accounting",
    "active_account",
    "audit_query",
    "count_spans",
    "doctor_report",
    "format_access_record",
    "format_doctor_report",
    "format_slo_report",
    "get_registry",
    "make_span",
    "merge_resources",
    "new_trace_id",
    "phase_totals",
    "q_error",
    "read_jsonl",
    "render_phases",
    "render_stitched",
    "render_trace",
    "report_from_records",
    "run_checks",
    "span_to_wire",
    "spans_per_level_plan",
    "stitch_trace",
    "trace_to_jsonl",
]
