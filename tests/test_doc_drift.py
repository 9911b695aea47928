"""Doc-drift guards.

Metrics: every metric family a live daemon exports must have a row in
docs/OBSERVABILITY.md's reference table, every row names what reads it,
and every documented family has a call site in ``src/`` that emits it;
the library itself emits none.  Commands: every ``python -m repro.<module>`` and ``repro <verb>``
the docs, CI workflow and verify skill name must still exist, and so
must every repository file they name (see `TestDocumentedCommands`).

Consumer ledger: DESIGN.md section 7 has one row per module under
``obs/``, ``reliability/`` and ``serve/``, per CLI verb and per daemon
route, naming what keeps it; `TestLedger` fails on code with no row and
on a row for code that is gone.

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
import asyncio
import glob
import importlib.util
import inspect
import os
import re
import subprocess
import sys

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
    from repro.obs.metrics import MetricsRegistry
    from tests.conftest import SMALL_XML

    tmp = tmp_path_factory.mktemp("doc_drift")
    db = XMLDatabase.from_xml_text(SMALL_XML)
    path = str(tmp / "db")
    save_database(db, path, shards=2)
    sharded = ShardedDatabase.open(path)
    daemon = ServeDaemon(sharded, workers=0, metrics=MetricsRegistry(),
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


def test_library_queries_publish_no_family(tmp_path):
    """In a fresh process, queries against a built and an opened
    database leave the process registry empty: a query's time and work
    are on its stats, its trace and the slow log."""
    script = (
        "from repro import XMLDatabase, get_registry\n"
        "from repro.diskdb import load_database\n"
        "from tests.conftest import SMALL_XML\n"
        "db = XMLDatabase.from_xml_text(SMALL_XML, slow_query_ms=0.0)\n"
        "db.search('xml data'); db.search_topk('xml data', 3)\n"
        "db.search_batch(['xml data', 'keyword search'])\n"
        f"db.save({str(tmp_path / 'db')!r})\n"
        f"opened = load_database({str(tmp_path / 'db')!r})\n"
        "opened.search('xml data'); opened.search_topk('xml data', 3)\n"
        "print(repr(get_registry().render_prometheus()))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT,
         os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "''"


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
    "--format-version", "format_version=", "REPRO_VECTORIZED_MIN_BYTES",
    "vectorized_min_bytes", "min_bytes=", "V4_CODECS",
    "choose_scheme", "compress_column",
    "serialize_columnar_index_blocked", "deserialize_columnar_index_blocked",
    "scan_blocked_container", "guarded_deserialize_columnar",
    "serialize_columnar_index_v3", "serialize_columnar_index_v4",
    "deserialize_columnar_index_v3", "deserialize_columnar_index_v4",
    "serialize_columnar_postings_v3", "serialize_columnar_postings_v4",
    # the whole-document serializer: a save streams the document
    # (`repro.xmltree.tree.DocumentBytes`)
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
        import repro.obs.doctor
        import repro.planner.plans
        import repro.serve
        import repro.serve.sharding
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
                              repro.xmltree.tree.XMLTree,
                              repro.algorithms.hybrid.HybridTopKSearch,
                              repro.obs, repro.obs.doctor,
                              repro.serve, repro.serve.daemon,
                              ServeDaemon, repro.cli):
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
        assert "serve" in verbs and "doctor" in verbs, "scan found nothing"
        missing = {verb: rel for verb, rel in verbs.items()
                   if verb not in sub.choices}
        assert not missing, f"docs name CLI verbs that are gone: {missing}"


# ---------------------------------------------------------------------------
# the consumer ledger (DESIGN.md section 7) matches the code
# ---------------------------------------------------------------------------

LEDGER_PACKAGES = ("obs", "reliability", "serve")
LEDGER_ROW_RE = re.compile(r"^\| (module|verb|route) \| `([^`]+)` \| (.+) \|$",
                           re.MULTILINE)
#: The consumer kinds a row may name (DESIGN.md section 7), or why it
#: has none.
CONSUMER_PREFIXES = ("gate:", "workflow:", "module:", "deleted in PR")


def _ledger():
    """(kind, part) -> consumer cell, from DESIGN.md's ledger table."""
    text = open(os.path.join(ROOT, "DESIGN.md"), encoding="utf-8").read()
    section = text[text.index("## 7. Consumer ledger"):]
    rows = {}
    for kind, part, consumer in LEDGER_ROW_RE.findall(section):
        assert (kind, part) not in rows, f"two rows for {part}"
        rows[kind, part] = consumer
    return rows


def _code_parts():
    """(kind, part) of every module file, CLI verb and daemon route."""
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
    return parts


def _ledger_drift(code, rows):
    """(code with no live row, live rows naming no code).  A row whose
    consumer reads "deleted in PR ..." is not live: code it names is
    back without a consumer."""
    live = {key for key, consumer in rows.items()
            if not consumer.startswith("deleted in PR")}
    return code - live, live - code


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
