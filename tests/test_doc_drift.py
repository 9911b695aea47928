"""Doc-drift guards.

Metrics: every metric family a live daemon exports must have a row in
docs/OBSERVABILITY.md's reference table, every row names what reads it,
and every documented family has a call site in ``src/`` that emits it;
the library itself emits none.  Commands: every ``python -m repro.<module>`` and ``repro <verb>``
the docs, CI workflow and verify skill name must still exist, and so
must every repository file they name (see `TestDocumentedCommands`).

Consumer ledger: DESIGN.md section 7 has one row per module under
``obs/``, ``reliability/`` and ``serve/``, per CLI verb and per daemon
route, naming what keeps it; `TestLedger` fails on code with no row, on
a row for code that is gone, on a citation that resolves to nothing,
and on a part only its own tests, verb-only CI steps or parts that
reach each other consume.

Removed names: the options, environment variable and functions that
went with the four-format storage stack, the library's own batch
pools, the phase profiler, the hybrid's plan switch, the parts the
ledger found no consumer for, the metric families nothing read, the
paper tables' second and third instruments, the daemon's fault
injector, workload capture/replay and tail hedge, and the eraser switch
with the interval and roaring erasers must not come back into a doc,
the CI workflow or the skill (see `REMOVED_NAMES`).

The test drives an inline daemon (with accounting, tracing, caching
and a disk-backed sharded database), scrapes `/metrics`, extracts the
family names from the `# TYPE` exposition lines, and greps the doc.  A
new metric added without a doc row fails here by name; so does one
emitted only on a path the drive does not take (worker pools), through
the scan of the ``src/`` call sites.
"""

import argparse
import ast
import asyncio
import glob
import importlib.util
import inspect
import os
import re

import pytest

from repro.serve.daemon import ServeDaemon
from repro.serve.merge import ShardedDatabase

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DOC = os.path.join(ROOT, "docs", "OBSERVABILITY.md")


def _exposition_families(text):
    families = set()
    for line in text.splitlines():
        match = re.match(r"# TYPE (\S+) ", line)
        if match:
            families.add(match.group(1))
    return families


@pytest.fixture(scope="module")
def exposition(tmp_path_factory):
    """A daemon's `/metrics` after a few answered requests."""
    from repro.diskdb import save_database
    from repro.api import XMLDatabase
    from tests.conftest import SMALL_XML

    tmp = tmp_path_factory.mktemp("doc_drift")
    db = XMLDatabase.from_xml_text(SMALL_XML)
    path = str(tmp / "db")
    save_database(db, path, shards=2)
    sharded = ShardedDatabase.open(path)
    daemon = ServeDaemon(sharded, workers=0,
                         access_log_path=str(tmp / "access.jsonl"))

    async def go():
        await daemon.start()
        for query in ("/topk?q=xml+data&k=5", "/search?q=keyword+search",
                      "/topk?q=xml+data&k=5"):
            status, _, _ = await daemon._dispatch("GET", query)
            assert status == 200
        status, _ctype, body = await daemon._dispatch("GET", "/metrics")
        assert status == 200
        await daemon.stop()
        return body.decode("utf-8")

    return asyncio.run(go())


#: A call that creates a family: ``.counter("repro_...")``,
#: ``.gauge(...)`` or ``.histogram(...)``.
EMIT_RE = re.compile(r'\.(?:counter|gauge|histogram)\(\s*"(repro_[a-z_]+)"')


def _emitted_families():
    """Family names some call site under ``src/`` emits."""
    found = set()
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                          recursive=True):
        found |= set(EMIT_RE.findall(open(path, encoding="utf-8").read()))
    return found


def _cells(line):
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def _metric_rows():
    """(families, reader cell) of every metric row of the doc's tables."""
    lines = open(DOC, encoding="utf-8").read().splitlines()
    rows = []
    column = None
    for line in lines:
        if line.startswith("| metric |"):
            header = _cells(line)
            assert "read by" in header, f"no 'read by' column: {line}"
            column = header.index("read by")
        elif column is not None and line.startswith("| `repro_"):
            cells = _cells(line)
            families = re.findall(r"`(repro_[a-z_]+)", cells[0])
            rows.append((families, cells[column] if len(cells) > column
                         else ""))
        elif not line.startswith("|"):
            column = None
    return rows


def test_every_exported_family_documented(exposition):
    doc = open(DOC, encoding="utf-8").read()
    families = _exposition_families(exposition)
    assert families, "exposition had no # TYPE lines"
    missing = sorted(name for name in families if name not in doc)
    assert not missing, (
        f"metric families exported by /metrics but absent from "
        f"docs/OBSERVABILITY.md: {missing}")


def test_exposition_covers_core_families(exposition):
    """The scrape itself must be meaningful: the daemon drive above
    has to emit the serve families the doc table anchors on."""
    families = _exposition_families(exposition)
    for name in ("repro_serve_requests_total", "repro_serve_rejects_total",
                 "repro_serve_latency_ms", "repro_serve_queue_wait_ms"):
        assert name in families, f"{name} missing from the drive"


def test_every_documented_family_is_emitted():
    """Both ways between the doc's rows and the ``src/`` call sites: a
    row for a family nothing emits is a removed family still
    documented, and an emitted family with no row is one the live drive
    above did not reach."""
    documented = {name for families, _reader in _metric_rows()
                  for name in families}
    emitted = _emitted_families()
    assert "repro_pool_rebuilds_total" in emitted, "scan found nothing"
    assert documented - emitted == set(), \
        f"documented but emitted nowhere: {sorted(documented - emitted)}"
    assert emitted - documented == set(), \
        f"emitted but undocumented: {sorted(emitted - documented)}"


def test_every_metric_row_says_what_reads_it():
    """Each metric table has a "read by" column, and every row names
    its reader -- a family nothing reads is removed, not kept with
    "none"."""
    rows = _metric_rows()
    assert len(rows) >= 8, "scan found nothing"
    for families, reader in rows:
        assert reader and not reader.lower().startswith("none"), \
            f"metric row with no reader named: {families}"


#: A span a library region opens by name: ``span("join")``,
#: ``tracer.span("query", ...)`` (the daemon's stitched spans are built
#: as dicts by `make_span` and documented with the daemon).
SPAN_CALL_RE = re.compile(r"\bspan\(\s*\"([a-z_]+)\"")


def _span_table():
    """Span names in docs/OBSERVABILITY.md's pipeline span table."""
    text = open(DOC, encoding="utf-8").read()
    table = text[text.index("| span | where | tags |"):]
    table = table[:table.index("\n\n")]
    return set(re.findall(r"^\| `([a-z_]+)` \|", table, re.MULTILINE))


def test_span_table_matches_the_library():
    """Every span the library opens has a row in the span table, and
    every row names a span some library region opens."""
    opened = set()
    for path in glob.glob(os.path.join(ROOT, "src", "repro", "**", "*.py"),
                          recursive=True):
        rel = os.path.relpath(path, os.path.join(ROOT, "src", "repro"))
        if rel.startswith("serve" + os.sep) or rel == os.path.join(
                "obs", "tracing.py"):
            continue        # the daemon's spans; the module's docstring
        opened |= set(SPAN_CALL_RE.findall(open(path, encoding="utf-8")
                                           .read()))
    documented = _span_table()
    assert "join" in opened and "query" in documented, "scan found nothing"
    assert opened == documented, (sorted(opened - documented),
                                  sorted(documented - opened))


# ---------------------------------------------------------------------------
# commands named in docs / CI must exist
# ---------------------------------------------------------------------------

COMMAND_DOCS = (["README.md", "DESIGN.md", "EXPERIMENTS.md",
                 ".github/workflows/ci.yml",
                 ".claude/skills/verify/SKILL.md"]
                + sorted(os.path.relpath(p, ROOT) for p in
                         glob.glob(os.path.join(ROOT, "docs", "*.md"))))

MODULE_RE = re.compile(r"python3? -m (repro(?:\.[a-z_]+)+)")
#: A repository path with a file extension: ``benchmarks/e2e/run.py``,
#: ``tests/test_cli.py::TestX`` (the file part), ``src/repro/cli.py``.
PATH_RE = re.compile(r"(?<![\w/.-])((?:benchmarks|tests|src|examples)/"
                     r"[\w./-]*\.\w+)")
#: ``python -m repro <verb>``, a backticked `` `repro <verb> `` and a
#: shell line starting ``repro <verb>`` / ``$ repro <verb>``.
VERB_RE = re.compile(r"(?:python3? -m repro|`repro|^\s*(?:\$ )?repro)"
                     r" +([a-z][a-z-]*)", re.MULTILINE)


#: What went when the four on-disk formats, the load-time decoder
#: switches and the eraser switch were collapsed.  A doc, CI step or
#: skill line that names one of these describes code that is gone.
REMOVED_NAMES = (
    # the library's result caches and the keywords the ledger found no
    # consumer for: the daemon's response cache is the only one
    "cache_stats", "clear_caches", "cache_lookup", "cache_hits",
    "cache_misses", "cache_evictions", "--no-cache", "cache=", "planner=",
    "slow_query_ms",
    "raise_on_error", "trace_capacity", "access_log_capacity",
    "retry_backoff_ms", "--eager", "--quiet",
    # names nothing called
    "span_to_wire", "best_per_keyword",
    "--format-version", "format_version=", "REPRO_VECTORIZED_MIN_BYTES",
    "vectorized_min_bytes", "min_bytes=", "V4_CODECS",
    "choose_scheme", "compress_column",
    "serialize_columnar_index_blocked", "deserialize_columnar_index_blocked",
    "scan_blocked_container", "guarded_deserialize_columnar",
    "serialize_columnar_index_v3", "serialize_columnar_index_v4",
    "deserialize_columnar_index_v3", "deserialize_columnar_index_v4",
    "serialize_columnar_postings_v3", "serialize_columnar_postings_v4",
    # the whole-document serializer: a save writes the bytes the
    # database holds
    "to_xml_bytes_with_text_spans",
    "scan_v3_container", "scan_v4_container",
    "parse_v3_payload", "parse_v4_payload", "parse_lazy_postings",
    "check_legacy_dewey", "codec_matrix_ci",
    # the library's private thread / process pools (serve/ forks, alone)
    "batch_executor", "processes=", "executor=", "--processes",
    "_BATCH_FAULT_HOOK", "repro_batch_pool_rebuilds_total",
    # the per-tuple rank join's API (its classes live on under
    # tests/reference_topk.py; these calls exist nowhere)
    "value_at", "has_exact_length", "is_erased", "topk_join(",
    "_CursorInput", "ScoreGroup", "cursor(level",
    # the second timing instrument: phase totals are a fold over the
    # span tree (`repro.obs.tracing.phase_totals`)
    "profile_phase", "PhaseProfiler", "NULL_PROFILER", "NullPhaseProfiler",
    "SamplingProfiler", "QueryProfile", "profiler=",
    # the result representations `ResultSet` replaced, and the scalar
    # level check (it lives on as tests/reference_join.py)
    "_ResultBuffer", "_rehydrate", "_validate_light", "_payload_results",
    "_check_candidate", "_check_level_vectorized", "corrupt_light",
    "_eval_search", "_eval_topk",
    # the postings LRU and the second, tuple-rebuilding loader: a term
    # reaches its columns through the index alone, opened one way
    "deserialize_columnar_index", "postings_cache_size",
    "postings_capacity", "postings_cache=", "record_cache",
    "postings_nbytes", "_materialize_seqs", "postings_hit_ratio",
    # the hybrid's per-level plan switch and its record: the plan is a
    # property of the algorithm name
    "switch_factor", "plan_trace",
    # the per-term erasers and their erase loop: a query keeps one
    # eraser, a level is one call each way into it
    "erase_runs", "run.erasers", "self.erasers",
    # what the consumer ledger (DESIGN.md section 7) found no consumer
    # for: the SLO tracker, the tail sampler, worker-counter shipping,
    # the reliability demo and the daemon's two off-switches
    "repro slo", "/slo", "SLOTracker", "SLOConfig", "report_from_records",
    "TailSampler", "--tail-sample-rate", "--tail-slow-ms",
    "--slo-availability", "--no-supervision", "--no-tracing",
    "repro.reliability.demo", "worker_metrics", "repro_worker_",
    # the metric families no gate, walked doc workflow or kept module
    # read, and what existed only to publish or dump them: a query's
    # time and work are on its stats, its trace and the slow log
    "repro_queries_total", "repro_query_latency_ms",
    "repro_level_joins_total", "repro_cache_requests_total",
    "repro_cache_hit_ratio", "repro_phase_time_ms",
    "repro_deadline_hits_total", "repro_query_bytes_mapped_total",
    "repro_query_bytes_copied_total", "repro_query_bytes_decompressed_total",
    "repro_query_bytes_cache_total", "repro_query_decode_cache_total",
    "repro_query_postings_scanned_total", "repro_query_postings_bytes_total",
    "repro_batch_queries_total", "repro_batch_queue_depth",
    "repro_batch_latency_ms", "repro_batch_query_errors_total",
    "repro_disk_bytes_written_total", "repro_disk_bytes_read_total",
    "repro_db_saves_total", "repro_db_loads_total",
    "repro_checksum_failures_total", "repro_injected_faults_total",
    "repro_io_attempts_total", "repro_io_retries_total",
    "repro_io_recovered_total", "repro_io_retry_exhausted_total",
    "repro_decode_bytes_total", "repro_serve_retries_total",
    "repro_serve_hedges_total", "repro_serve_shard_skipped_total",
    "repro_serve_degraded_total", "repro_breaker_state",
    "repro_breaker_transitions_total",
    "metrics_snapshot", "bind_metrics", "--metrics-out", "--prometheus",
    # the scalar decoder twins and the size crossover that picked them:
    # each codec has one decoder (the loops live on as
    # tests/reference_codecs.py), and nothing takes ``vectorized=``
    "VECTORIZED_MIN_BYTES", "_decode_rle_scalar",
    "_decode_delta_blocks_scalar", "_decode_varint_column_scalar",
    "_decode_for_scalar", "decode_varints_vectorized", "vectorized=",
    # the second and third instruments of the paper's section V: the
    # pytest-benchmark files and the per-level plan oracle script (the
    # paper harness measures both, `repro.bench.harness`)
    "REPRO_BENCH_SCALE", "--benchmark-only", "pytest-benchmark",
    "plan_oracle.py",
    # the cardinality estimator and the plan audit that graded it: no
    # engine decision reads an estimate, and `explain` reports what ran
    "repro.obs.audit", "repro.planner.cardinality", "obs/audit.py",
    "planner/cardinality.py", "AuditingJoinPlanner", "PlanAuditor",
    "PlanAudit", "LevelAudit", "JoinObservation", "audit_query",
    "q_error", "CardinalityEstimator", "CardinalityEstimate",
    "containment_estimate", "sampled_estimate", "modeled_cost",
    "alternative_of", "stats.audit", "plan.audit", "audit=", "shadow=",
    "analyze=", "estimator=", "est=", "repro audit", "--analyze",
    "--shadow", "--policy", "--sample-size", "--fail-on-misprediction",
    # the daemon's fault injector, its workload capture/replay pair and
    # its off-by-default tail hedge: nothing outside them consumed them
    # (tests/test_self_healing.py injects real faults from the test side)
    "repro.serve.chaos", "serve/chaos.py", "ChaosInjector",
    "run_chaos_drive", "format_chaos_report", "sample_queries",
    "apply_worker_fault", "corrupt_wire", "CHAOS_KINDS", "WORKER_KILL",
    "SHARD_LATENCY", "BYTE_FAULT", "repro chaos", "--chaos",
    "chaos_ci_smoke.py", "repro_chaos_injected_total",
    "repro.serve.capture", "serve/capture.py", "WorkloadCapture",
    "WORKLOAD_SCHEMA", "repro.workload/v1", "read_workload",
    "result_digest", "record_digest", "with_digest", "capture_path",
    "--capture", "repro.serve.replay", "serve/replay.py", "run_replay",
    "format_replay_report", "repro replay", "--fail-on-mismatch",
    "_cache_estimate", "max_hit_ratio", "doctor_report(workload",
    "hedge_ms", "--hedge-ms", "_submit_once",
    # a column's per-row lookups: a column is its runs, read through
    # `Column.runs_of` and `Column.ordinal_spans`
    "run_of", "run_seq_indices", ".contains(",
    # the interval and roaring erasers and the switch between them: the
    # bitmap is the one eraser, read and written in bulk (the section
    # III-E interval structure lives on as tests/reference_erasure.py)
    "eraser_mode", "make_eraser", "ERASER_MODES", "IntervalEraser",
    "RoaringEraser", "total_erased",
    # the per-term postings reader: the container has one reader
    # (`repro.index.lazydisk.LazyColumnarIndex`)
    "deserialize_columnar_postings",
    # the storage fault injector and its switches (it lives on as
    # tests/faults.py, under the library's one opener) and the index
    # doctor: only their own suite and a CI step that ran them used them
    "injector=", "repro.reliability.faults", "repro doctor",
    "doctor_report", "DOCTOR_SCHEMA", "--max-shard-byte-skew",
    # the second node representation: a database is its node table,
    # parsed from document bytes; the per-node table builder and its
    # Node-handing mode, the eager encoding pass, the hand-written
    # parser and the tree-walking document writer went
    "NodeTable.from_tree", "_real_nodes", "_encode_all", "_Parser",
    "DocumentBytes", "CHUNK_BYTES", "sequences_in_order", "number_of",
    "sequence_of", "iter_document_order", "ColumnarIndex.tree",
    "InvertedIndex.tree", "TextSource.choice",
    # the container writer's score modes: it stores exact scores only
    "score_mode=",
    # the per-element generators and the lexsort scoring; they live on
    # as tests/reference_datagen.py and tests/reference_build.py
    "apply_planting", "words_batch", "TextSource.sentence", "_local_scores",
    # the slow-query log and the daemon's second and third per-request
    # rings: a request is one access-log record, its stitched trace
    # included, and its trace id is the whole trace context
    "repro.obs.slowlog", "obs/slowlog.py", "SlowQueryLog", "SlowQueryRecord",
    "slow_log", "slow_ms", "_record_query", "TraceStore", "trace_log_path",
    "--trace-log", "trace-log-ci.jsonl", "ACCESS_LOG_CAPACITY",
    "count_spans", "render_stitched", "shift_span", "TraceContext",
    "TRACE_WIRE_VERSION", "new_trace_id", "slow_log_records",
    "access_log_records", "access_log_written",
    # the process-wide registry: each daemon owns its own
    "get_registry", "_DEFAULT_REGISTRY",
    # the daemon's inline evaluation: every query takes the supervised
    # per-shard call, on a thread pool at ``--workers 0``
    "POOL_NONE", "_start_pools", "_stop_pools",
    # Dewey helpers nothing called
    "is_ancestor_or_self", "parse_dewey", "encoded_size_bytes",
)


#: A ledger row for deleted code (DESIGN.md section 7) names what went
#: on purpose; it is the one place a removed name may appear.
DELETED_ROW_RE = re.compile(r"^\|[^\n]*\| deleted in PR [^\n]*$",
                            re.MULTILINE)


def _doc_texts():
    """(rel, text) of every doc the guards read, deleted-code ledger
    rows left out."""
    for rel in COMMAND_DOCS:
        path = os.path.join(ROOT, rel)
        if os.path.exists(path):
            text = open(path, encoding="utf-8").read()
            yield rel, DELETED_ROW_RE.sub("", text)


def _mentions(pattern):
    found = {}
    for rel, text in _doc_texts():
        for name in pattern.findall(text):
            found.setdefault(name, rel)
    return found


def _importable(name):
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:      # a parent package is gone too
        return False


class TestDocumentedCommands:
    def test_removed_names_stay_out(self):
        found = {}
        for rel, text in _doc_texts():
            for name in REMOVED_NAMES:
                # not inside a longer name (`decompress_column` stays)
                if re.search(r"(?<![A-Za-z_])" + re.escape(name), text):
                    found.setdefault(name, rel)
        assert not found, f"docs name what was removed: {found}"
        # ... and they really are gone from the code the docs describe.
        import repro.algorithms.hybrid
        import repro.api
        import repro.cache
        import repro.cli
        import repro.diskdb
        import repro.index.columnar
        import repro.index.compression
        import repro.index.lazydisk
        import repro.index.storage
        import repro.obs
        import repro.obs.account
        import repro.obs.distributed
        import repro.planner.plans
        import repro.reliability.io
        import repro.scoring.ranking
        import repro.serve
        import repro.serve.sharding
        import repro.serve.supervisor
        import repro.xmltree.dewey
        import repro.xmltree.jdewey
        import repro.xmltree.nodetable
        import repro.xmltree.parser
        import repro.xmltree.tree

        for name in REMOVED_NAMES:
            if name.isidentifier():
                for owner in (repro.diskdb, repro.index.columnar.Column,
                              repro.index.compression,
                              repro.index.lazydisk, repro.index.storage,
                              repro.api, repro.api.XMLDatabase,
                              repro.cache.QueryCache,
                              repro.cache.DecodedColumnCache,
                              repro.obs.account,
                              repro.obs.account.ResourceAccount,
                              repro.planner.plans,
                              repro.planner.plans.JoinPlanner,
                              repro.serve.sharding,
                              repro.serve.supervisor,
                              repro.xmltree.dewey,
                              repro.xmltree.tree, repro.xmltree.tree.XMLTree,
                              repro.xmltree.parser, repro.xmltree.jdewey,
                              repro.xmltree.jdewey.JDeweyEncoder,
                              repro.xmltree.nodetable.NodeTable,
                              repro.algorithms.hybrid.HybridTopKSearch,
                              repro.obs, repro.reliability,
                              repro.reliability.io,
                              repro.serve, repro.serve.daemon,
                              ServeDaemon, ShardedDatabase, repro.cli,
                              repro.obs.distributed, repro.scoring.ranking):
                    assert not hasattr(owner, name), (owner, name)

    def test_hybrid_row_names_no_estimator(self):
        """The hybrid reads the level's exact join size; nothing in the
        library estimates one."""
        text = open(os.path.join(ROOT, "docs", "API.md"),
                    encoding="utf-8").read()
        rows = [line for line in text.splitlines()
                if line.startswith("| `HybridTopKSearch(")]
        assert rows and not any("estimat" in row for row in rows), rows

    def test_search_topk_row_names_the_default_plan(self):
        text = open(os.path.join(ROOT, "docs", "API.md"),
                    encoding="utf-8").read()
        rows = [line for line in text.splitlines()
                if line.startswith("| `.search_topk(")]
        assert len(rows) == 1 and 'algorithm="hybrid"' in rows[0], rows

    def test_plan_switch_names_stay_out_of_src(self):
        """`REMOVED_NAMES` keeps the plan switch out of the docs; no
        source file names it either."""
        found = [os.path.relpath(path, ROOT) for path in glob.glob(
                     os.path.join(ROOT, "src", "**", "*.py"), recursive=True)
                 if re.search(r"switch_factor|plan_trace",
                              open(path, encoding="utf-8").read())]
        assert not found, found

    def test_fault_capture_and_hedge_names_stay_out_of_src(self):
        """The daemon serves queries and nothing else: no source file
        names the fault injector, workload capture/replay or the tail
        hedge."""
        pattern = (r"ChaosInjector|WorkloadCapture|result_digest|"
                   r"run_replay|hedge_ms|--chaos|--capture|--hedge-ms|"
                   r"serve\.chaos|serve\.capture|serve\.replay")
        found = [os.path.relpath(path, ROOT) for path in glob.glob(
                     os.path.join(ROOT, "src", "**", "*.py"), recursive=True)
                 if re.search(pattern, open(path, encoding="utf-8").read())]
        assert not found, found

    def test_eraser_switch_stays_out_of_src(self):
        """One eraser: no source file names the eraser switch or the
        erasers it chose between, and no engine takes it."""
        from repro.algorithms.hybrid import HybridTopKSearch
        from repro.algorithms.join_based import JoinBasedSearch
        from repro.algorithms.topk_keyword import TopKKeywordSearch

        pattern = (r"eraser_mode|make_eraser|ERASER_MODES|IntervalEraser|"
                   r"RoaringEraser")
        found = [os.path.relpath(path, ROOT) for path in glob.glob(
                     os.path.join(ROOT, "src", "**", "*.py"), recursive=True)
                 if re.search(pattern, open(path, encoding="utf-8").read())]
        assert not found, found
        for engine in (JoinBasedSearch, TopKKeywordSearch, HybridTopKSearch):
            assert "eraser_mode" not in \
                inspect.signature(engine).parameters, engine

    def test_one_shot_wrappers_are_gone(self):
        """Callers use the engine classes; no algorithm module keeps a
        module-level one-shot wrapper around one."""
        from repro.algorithms import (index_based, join_based, rdil,
                                      stack_based, topk_keyword)

        for module, name in ((join_based, "search"),
                             (stack_based, "search"),
                             (index_based, "search"),
                             (topk_keyword, "search_topk"),
                             (rdil, "search_topk")):
            assert not hasattr(module, name), (module.__name__, name)

    def test_estimator_and_audit_names_stay_out_of_src(self):
        """Nothing in ``src/`` predicts a cardinality or grades a plan:
        no file names the estimator or the plan audit."""
        pattern = (r"CardinalityEstimat|containment_estimate|"
                   r"sampled_estimate|PlanAudit|AuditingJoinPlanner|"
                   r"audit_query|q_error|modeled_cost|alternative_of|"
                   r"obs\.audit|planner\.cardinality")
        found = [os.path.relpath(path, ROOT) for path in glob.glob(
                     os.path.join(ROOT, "src", "**", "*.py"), recursive=True)
                 if re.search(pattern, open(path, encoding="utf-8").read())]
        assert not found, found

    def test_modules_are_importable(self):
        modules = _mentions(MODULE_RE)
        assert "repro.bench.harness" in modules, "scan found nothing"
        missing = {name: rel for name, rel in modules.items()
                   if not _importable(name)}
        assert not missing, f"docs name modules that are gone: {missing}"

    def test_named_files_exist(self):
        paths = _mentions(PATH_RE)
        assert "benchmarks/e2e/run.py" in paths, "scan found nothing"
        missing = {path: rel for path, rel in paths.items()
                   if not os.path.exists(os.path.join(ROOT, path))}
        assert not missing, f"docs name files that are gone: {missing}"

    def test_verbs_exist_in_the_cli(self):
        from repro.cli import build_parser

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        verbs = _mentions(VERB_RE)
        assert "serve" in verbs and "info" in verbs, "scan found nothing"
        missing = {verb: rel for verb, rel in verbs.items()
                   if verb not in sub.choices}
        assert not missing, f"docs name CLI verbs that are gone: {missing}"


# ---------------------------------------------------------------------------
# the consumer ledger (DESIGN.md section 7) matches the code
# ---------------------------------------------------------------------------

LEDGER_PACKAGES = ("obs", "reliability", "serve")
LEDGER_ROW_RE = re.compile(r"^\| (module|verb|route|keyword) \| `([^`]+)`"
                           r"(?: on ([^|]+?))? \| (.+) \|$", re.MULTILINE)
#: The consumer kinds a row may name (DESIGN.md section 7), or why it
#: has none.
CONSUMER_PREFIXES = ("gate:", "workflow:", "module:", "example:",
                     "deleted in PR")


def _entry_points():
    """The public entry points whose keywords the ledger holds: name ->
    callable."""
    from repro.api import XMLDatabase
    from repro.diskdb import load_database, save_database

    points = {"XMLDatabase": XMLDatabase.__init__,
              "ShardedDatabase": ShardedDatabase.__init__,
              "ServeDaemon": ServeDaemon.__init__,
              "load_database": load_database,
              "save_database": save_database}
    for cls in (XMLDatabase, ShardedDatabase):
        for name in ("search", "search_ranked", "search_topk",
                     "search_batch", "search_stream", "explain",
                     "generate_dblp", "generate_xmark"):
            if hasattr(cls, name):
                points[f"{cls.__name__}.{name}"] = getattr(cls, name)
    return points


def _keyword_sites():
    """Keyword -> the entry points taking it: every parameter with a
    default of a public entry point, and every `build_parser()` option
    (its sites are the verbs, ``repro <verb>``)."""
    from repro.cli import build_parser

    sites = {}
    for point, fn in _entry_points().items():
        for param in inspect.signature(fn).parameters.values():
            if param.default is not param.empty:
                sites.setdefault(param.name, set()).add(point)
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for verb, parser in sub.choices.items():
        for action in parser._actions:
            for flag in action.option_strings:
                if flag not in ("-h", "--help"):
                    sites.setdefault(flag, set()).add(f"repro {verb}")
    return sites


def _ledger_table():
    """(kind, part, sites or None, consumer) per row of DESIGN.md's
    ledger table."""
    text = open(os.path.join(ROOT, "DESIGN.md"), encoding="utf-8").read()
    section = text[text.index("## 7. Consumer ledger"):]
    return [(kind, part, sites or None, consumer)
            for kind, part, sites, consumer in LEDGER_ROW_RE.findall(section)]


def _ledger():
    """(kind, part) -> consumer cell, from DESIGN.md's ledger table."""
    rows = {}
    for kind, part, _sites, consumer in _ledger_table():
        assert (kind, part) not in rows, f"two rows for {part}"
        rows[kind, part] = consumer
    return rows


def _code_parts():
    """(kind, part) of every module file, CLI verb, daemon route and
    public keyword."""
    from repro.cli import build_parser

    src = os.path.join(ROOT, "src", "repro")
    parts = {("module", f"{pkg}/{name}") for pkg in LEDGER_PACKAGES
             for name in os.listdir(os.path.join(src, pkg))
             if name.endswith(".py") and name != "__init__.py"}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parts |= {("verb", f"repro {verb}") for verb in sub.choices}
    dispatch = inspect.getsource(ServeDaemon._dispatch)
    parts |= {("route", route)
              for route in re.findall(r'"(/[a-z][a-z/_]*)"', dispatch)}
    parts |= {("keyword", name) for name in _keyword_sites()}
    return parts


def _ledger_drift(code, rows):
    """(code with no live row, live rows naming no code).  A row whose
    consumer reads "deleted in PR ..." is not live: code it names is
    back without a consumer."""
    live = {key for key, consumer in rows.items()
            if not consumer.startswith("deleted in PR")}
    return code - live, live - code


CITATION_RE = re.compile(r"`([^`]+)`")
#: What a CI step runs besides ``repro`` verbs: test files and scripts.
STEP_TESTS_RE = re.compile(r"tests/test_\w+\.py")
STEP_SCRIPTS_RE = re.compile(r"benchmarks/[\w/]+\.py|-m repro\.[\w.]+")


def _benchmark_names():
    """Every workload and metric name `BENCHMARK.json` declares."""
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {entry["name"] for key in ("workloads", "end_to_end", "per_layer")
            for entry in bench[key]}


def _ci_steps():
    """name -> run text of every named step in the CI workflow."""
    text = open(os.path.join(ROOT, ".github", "workflows", "ci.yml"),
                encoding="utf-8").read()
    steps = {}
    for chunk in re.split(r"^\s+- ", text, flags=re.MULTILINE)[1:]:
        match = re.match(r"name: (.*?)\n\s+(?:run|uses|with):(.*)", chunk,
                         re.DOTALL)
        if match:
            steps[" ".join(match.group(1).split())] = match.group(2)
    return steps


def _own_tests(kind, part):
    """The test files named after a part: its own unit tests."""
    if kind == "module":
        pkg, stem = part[:-len(".py")].split("/")
        names = {stem, f"{pkg}_{stem}"}
    elif kind == "verb":
        names = {part.split()[1].replace("-", "_")}
    else:
        names = {part.strip("/").split("/")[0]}
    return {f"tests/test_{name}.py" for name in names}


def _step_of(citation, steps):
    """The run text of the CI step `citation` names (its name or a
    prefix of it ending at a word boundary), or None."""
    for name, run in steps.items():
        if name.startswith(citation) and (
                len(name) == len(citation)
                or not name[len(citation)].isalnum()):
            return run
    return None


def _test_node_exists(citation):
    path, *names = citation.split("::")
    full = os.path.join(ROOT, path)
    if not os.path.isfile(full):
        return False
    text = open(full, encoding="utf-8").read()
    return all(re.search(rf"^\s*(?:class|def) {re.escape(name)}\b", text,
                         re.MULTILINE) for name in names)


def _live_clauses(rows):
    """((kind, part), clause kind, citations) per clause of each live
    row: a cell is clauses separated by ``;``, each led by its kind."""
    for key, cell in rows.items():
        if cell.startswith("deleted in PR"):
            continue
        for clause in cell.split(";"):
            clause_kind = clause.strip().split(":", 1)[0]
            yield key, clause_kind, CITATION_RE.findall(clause)


def _citation_failures(rows, steps, bench):
    """Clauses citing nothing, and citations that resolve to none of: a
    `BENCHMARK.json` name, a CI step, a ``tests/...`` file or node, a
    file under ``src/repro/``."""
    failures = []
    for key, clause_kind, citations in _live_clauses(rows):
        if not citations:
            failures.append((key, clause_kind, "cites nothing"))
        for cite in citations:
            if not (cite in bench or _step_of(cite, steps) is not None
                    or (cite.startswith("tests/") and _test_node_exists(cite))
                    or (cite.endswith(".py") and os.path.isfile(
                        os.path.join(ROOT, "src", "repro", cite)))
                    or (cite.startswith(("benchmarks/", "examples/"))
                        and os.path.isfile(os.path.join(ROOT, cite)))):
                failures.append((key, clause_kind, cite))
    return failures


def _outside(key, cite, steps, bench):
    """Whether `cite` consumes the part `key` from outside it: a
    benchmark name, a test that is not the part's own, or a CI step
    that runs a script or a test file that is not the part's own (a
    step that runs ``repro`` verbs checks those verbs)."""
    kind, part = key
    own = _own_tests(kind, part)
    if cite in bench:
        return True
    if cite.startswith("tests/"):
        return cite.split("::")[0] not in own
    run = _step_of(cite, steps)
    if run is None:
        return False
    return bool(STEP_SCRIPTS_RE.search(run)
                or set(STEP_TESTS_RE.findall(run)) - own)


#: A top-level ``def`` / ``class`` or assignment: a name a module defines.
DEFINED_RE = re.compile(r"^(?:def|class)[ \t]+(\w+)"
                        r"|^([A-Za-z_]\w*)[ \t]*(?::[^=\n]*)?=(?!=)",
                        re.MULTILINE)


def _source(rel):
    """The text of ``src/repro/<rel>``."""
    return open(os.path.join(ROOT, "src", "repro", rel),
                encoding="utf-8").read()


def _uses(cite, part, source=_source):
    """Whether module `cite` uses what it imports from module `part`: a
    name bound by an import of the part (the part itself, a name from
    it, or a name the part defines imported through its package) must
    occur as an AST `Name` -- the head of any `Attribute` chain on it
    included.  An import alone consumes nothing, and neither does a
    docstring or a comment naming the import."""
    pkg, stem = os.path.split(part[:-len(".py")])
    defined = {a or b for a, b in DEFINED_RE.findall(source(part))}
    tree = ast.parse(source(cite))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            for alias in node.names:
                if (module == stem or alias.name == stem
                        or (module == pkg and alias.name in defined)):
                    bound.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[-1] == stem:
                    bound.add(alias.asname or alias.name.split(".")[0])
    return any(isinstance(node, ast.Name) and node.id in bound
               for node in ast.walk(tree))


def _unanchored(rows, steps, bench, source=_source):
    """Live parts nothing outside consumes.  A part is anchored by an
    outside citation, by a kept ``src/`` file outside the ledger that
    uses it (a name it defines, outside the file's import lines), or by
    an anchored ledger module that does; parts reached only through
    parts that reach each other stay unanchored."""
    modules = {part for kind, part in rows if kind == "module"}
    anchored, edges = set(), {}
    for key, _clause_kind, citations in _live_clauses(rows):
        if key[0] == "keyword":
            continue            # `_keyword_failures` holds these
        for cite in citations:
            if key[0] == "module" and cite.endswith(".py") \
                    and not cite.startswith("tests/"):
                if not _uses(cite, key[1], source):
                    continue
                if cite in modules:
                    edges.setdefault(key, set()).add(("module", cite))
                elif cite != key[1]:
                    anchored.add(key)
            elif _outside(key, cite, steps, bench):
                anchored.add(key)
    grown = True
    while grown:
        grown = False
        for key, users in edges.items():
            if key not in anchored and users & anchored:
                anchored.add(key)
                grown = True
    live = {key for key, cell in rows.items()
            if key[0] != "keyword" and not cell.startswith("deleted in PR")}
    return live - anchored


def _passes_keyword(text, name):
    """Whether Python source `text` passes keyword `name`: a call's
    ``name=`` argument, or a ``"name"`` key of a dict literal that is
    spread into one (``**kwargs``)."""
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call) and any(
                kw.arg == name for kw in node.keywords):
            return True
        if isinstance(node, ast.Dict) and any(
                isinstance(key, ast.Constant) and key.value == name
                for key in node.keys):
            return True
    return False


def _site_drift(table, sites):
    """Live keyword rows whose ``on ...`` list is not the set of entry
    points (or verbs) that take the keyword."""
    return sorted(part for kind, part, listed, cell in table
                  if kind == "keyword" and part in sites
                  and not cell.startswith("deleted in PR")
                  and {s.strip() for s in (listed or "").split(",")}
                  != sites[part])


def _keyword_failures(rows, steps, read=None):
    """Live keyword rows with no consumer.

    A library keyword's consumer is a caller outside the tests that
    passes it: a ``src/`` module (the CLI maps a flag onto it, the
    daemon, the opener), a script under ``benchmarks/`` or a program
    under ``examples/``.  A CLI flag's consumer is a CI step or a
    ``benchmarks/`` script that passes it, or a documented workflow a
    test walks (``tests/...``)."""
    if read is None:
        def read(rel):
            base = ROOT if rel.startswith(("benchmarks/", "examples/")) \
                else os.path.join(ROOT, "src", "repro")
            return open(os.path.join(base, rel), encoding="utf-8").read()
    failures = []
    for (kind, part), cell in rows.items():
        if kind != "keyword" or cell.startswith("deleted in PR"):
            continue
        consumed = False
        for clause in cell.split(";"):
            for cite in CITATION_RE.findall(clause):
                if part.startswith("-"):
                    run = _step_of(cite, steps)
                    if run is not None:
                        consumed |= part in run.split()
                    elif cite.startswith("tests/"):
                        consumed |= _test_node_exists(cite)
                    elif cite.startswith("benchmarks/"):
                        consumed |= part in read(cite)
                elif cite.endswith(".py") and not cite.startswith("tests/"):
                    consumed |= _passes_keyword(read(cite), part)
        if not consumed:
            failures.append(part)
    return sorted(failures)


def _false_module_citations(rows):
    """Module clauses citing a ``src/`` file that does not import the
    part: a module consumer depends on what it is credited with."""
    false = []
    for key, _clause_kind, citations in _live_clauses(rows):
        kind, part = key
        if kind != "module":
            continue
        stem = part[:-len(".py")].split("/")[1]
        imports = re.compile(
            rf"^\s*(?:from|import)\s+(?:[.\w]*\.)?{stem}\s", re.MULTILINE)
        for cite in citations:
            full = os.path.join(ROOT, "src", "repro", cite)
            if not (cite.endswith(".py") and os.path.isfile(full)):
                continue
            if not imports.search(open(full, encoding="utf-8").read()):
                false.append((part, cite))
    return false


class TestLedger:
    def test_every_part_has_a_row_and_every_row_a_part(self):
        code = _code_parts()
        assert ("route", "/healthz") in code and \
            ("verb", "repro serve") in code and \
            ("module", "serve/daemon.py") in code, "scan found nothing"
        missing, stale = _ledger_drift(code, _ledger())
        assert not missing, f"code with no ledger row: {sorted(missing)}"
        assert not stale, f"ledger rows for code that is gone: {sorted(stale)}"

    def test_every_row_names_a_kind_of_consumer(self):
        rows = _ledger()
        bad = {part: consumer for (_kind, part), consumer in rows.items()
               if not consumer.startswith(CONSUMER_PREFIXES)}
        assert not bad, bad

    def test_every_citation_resolves(self):
        failures = _citation_failures(_ledger(), _ci_steps(),
                                      _benchmark_names())
        assert not failures, failures

    def test_every_part_is_consumed_from_outside(self):
        rows = _ledger()
        assert ("module", "serve/daemon.py") in rows, "scan found nothing"
        lonely = _unanchored(rows, _ci_steps(), _benchmark_names())
        assert not lonely, f"parts only they themselves consume: {lonely}"

    def test_module_consumers_import_the_part(self):
        false = _false_module_citations(_ledger())
        assert not false, false

    def test_every_keyword_row_lists_its_entry_points(self):
        sites = _keyword_sites()
        assert "deadline" in sites and "--timeout-ms" in sites, \
            "scan found nothing"
        drift = _site_drift(_ledger_table(), sites)
        assert not drift, f"rows whose entry points are not the code's: " \
                          f"{drift}"

    def test_every_keyword_has_a_consumer(self):
        lonely = _keyword_failures(_ledger(), _ci_steps())
        assert not lonely, f"keywords no caller outside the tests " \
                           f"passes: {lonely}"

    def test_the_check_fails_both_ways(self):
        code = _code_parts()
        rows = {key: "module: x" for key in code}
        rows["module", "obs/gone.py"] = "gate: x"
        rows["module", "serve/daemon.py"] = "deleted in PR N"
        added = code | {("verb", "repro new")}
        missing, stale = _ledger_drift(added, rows)
        assert missing == {("verb", "repro new"),
                           ("module", "serve/daemon.py")}
        assert stale == {("module", "obs/gone.py")}
        steps, bench = _ci_steps(), _benchmark_names()
        rows = {
            # consumed: a benchmark name, a walked workflow, a core
            # module, a CI step running more than the part
            ("module", "serve/daemon.py"): "gate: `serve_open`",
            ("route", "/stats"): "workflow: `tests/test_serve_daemon.py`",
            ("module", "reliability/io.py"): "module: `diskdb.py`",
            ("verb", "repro generate"): "gate: `Daemon smoke`",
            # self-gated: its own test file; steps that run only verbs
            ("module", "serve/supervisor.py"):
                "gate: `tests/test_supervisor.py`",
            ("verb", "repro trace"): "gate: `Traced query`",
            ("verb", "repro explain"): "gate: `Sharded explain + trace`",
            # a two-part cycle
            ("module", "serve/merge.py"): "module: `serve/sharding.py`",
            ("module", "serve/sharding.py"): "module: `serve/merge.py`",
            # what does not resolve
            ("verb", "repro info"): "gate: `no such step`; workflow: ",
        }
        assert _unanchored(rows, steps, bench) == {
            ("module", "serve/supervisor.py"), ("verb", "repro trace"),
            ("verb", "repro explain"),
            ("module", "serve/merge.py"), ("module", "serve/sharding.py"),
            ("verb", "repro info")}
        # an import-only consumer: the cited file imports the part and
        # uses none of the names it defines
        consumers = {"only_imports.py": "from .serve.supervisor import "
                                        "(CircuitBreaker,\n    Supervisor)"
                                        "\n\n\ndef f():\n    return 1\n",
                     "uses.py": "from .serve import merge\n\n\n"
                                "OPEN = merge.ShardedDatabase.open\n"}
        # ... and one that names the import only in a docstring
        consumers["says_so.py"] = ("from .obs.distributed import AccessLog"
                                   "\n\n\ndef f():\n    \"\"\"Feeds an "
                                   "AccessLog.\"\"\"\n    return 1\n")
        assert _unanchored(
            {("module", "serve/supervisor.py"): "module: `only_imports.py`",
             ("module", "obs/distributed.py"): "module: `says_so.py`",
             ("module", "serve/merge.py"): "module: `uses.py`"},
            steps, bench,
            lambda rel: consumers.get(rel) or _source(rel)) == {
            ("module", "serve/supervisor.py"),
            ("module", "obs/distributed.py")}
        assert _citation_failures(rows, steps, bench) == [
            (("verb", "repro info"), "gate", "no such step"),
            (("verb", "repro info"), "workflow", "cites nothing")]
        # `serve/sharding.py` does not import `serve/merge.py`
        assert _false_module_citations(rows) == [
            ("serve/merge.py", "serve/sharding.py")]
        # a keyword added with no row, and a row whose keyword is gone
        rows = {key: "module: x" for key in code}
        rows["keyword", "cache"] = "module: `api.py`"
        missing, stale = _ledger_drift(
            code | {("keyword", "new_knob"), ("keyword", "--new-flag")},
            rows)
        assert missing == {("keyword", "new_knob"),
                           ("keyword", "--new-flag")}
        assert stale == {("keyword", "cache")}
        # a keyword row must list the entry points that take it
        sites = {"deadline": {"XMLDatabase.search", "ShardedDatabase.search"}}
        table = [("keyword", "deadline", "XMLDatabase.search", "gate: x")]
        assert _site_drift(table, sites) == ["deadline"]
        table = [("keyword", "deadline",
                  "ShardedDatabase.search, XMLDatabase.search", "gate: x")]
        assert _site_drift(table, sites) == []
        # a keyword's consumer passes it; a flag's runs it
        callers = {"passes.py": "db.search(q, deadline=5)\n",
                   "spreads.py": "db.search(q, **{'timeout_ms': 5})\n",
                   "names.py": "# deadline= is a keyword\nDEADLINE = 1\n"}
        assert _keyword_failures(
            {("keyword", "deadline"): "module: `passes.py`",
             ("keyword", "timeout_ms"): "module: `spreads.py`",
             ("keyword", "strict"): "module: `names.py`",
             ("keyword", "--shards"): "gate: `Re-save with fewer shards`",
             ("keyword", "--semantics"):
                 "gate: `Re-save with fewer shards`",
             ("keyword", "--gone"): "deleted in PR N"},
            steps, callers.get) == ["--semantics", "strict"]

