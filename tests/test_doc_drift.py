"""Doc-drift guards.

Metrics: every metric family a live daemon exports must have a row in
docs/OBSERVABILITY.md's reference table.  Commands: every ``python -m
repro.<module>`` and ``repro <verb>`` the docs, CI workflow and verify
skill name must still exist (see `TestDocumentedCommands`).

Removed names: the options, environment variable and functions that
went with the four-format storage stack, the library's own batch
pools and the phase profiler must not come back into a doc, the CI
workflow or the skill (see `REMOVED_NAMES`).

The test drives an inline daemon (with accounting, tracing, caching
and a disk-backed sharded database, so as many families as
possible actually emit), scrapes `/metrics`, extracts the family
names from the `# TYPE` exposition lines, and greps the doc.  A new
metric added without a doc row fails here by name.
"""

import argparse
import asyncio
import glob
import importlib.util
import os
import re

import pytest

from repro.serve.daemon import ServeDaemon
from repro.serve.merge import ShardedDatabase

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DOC = os.path.join(ROOT, "docs", "OBSERVABILITY.md")

#: Families folded in from worker processes keep their origin name
#: under this prefix; the doc documents the pattern, not each name.
WILDCARD_PREFIXES = ("repro_worker_",)


def _exposition_families(text):
    families = set()
    for line in text.splitlines():
        match = re.match(r"# TYPE (\S+) ", line)
        if match:
            families.add(match.group(1))
    return families


@pytest.fixture(scope="module")
def exposition(tmp_path_factory):
    """Daemon `/metrics` plus a lazily opened database's registry: the daemon
    exposition carries the serve families, the database registry the
    query-pipeline and resource-accounting families (which inline
    shards publish into their own registries, not the daemon's)."""
    from repro.diskdb import load_database, save_database
    from tests.conftest import SMALL_XML
    from repro.api import XMLDatabase
    from repro.obs.metrics import MetricsRegistry

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
        return body

    daemon_text = asyncio.run(go())

    flat_path = str(tmp / "db_flat")
    save_database(db, flat_path)
    lazy = load_database(flat_path, lazy=True,
                         metrics=MetricsRegistry())
    lazy.search_topk("xml data", 5)
    lazy.search("keyword search")
    lazy.search("keyword search")   # result-cache hit
    return daemon_text + "\n" + lazy.metrics.render_prometheus()


def test_every_exported_family_documented(exposition):
    doc = open(DOC, encoding="utf-8").read()
    families = _exposition_families(exposition)
    assert families, "exposition had no # TYPE lines"
    missing = sorted(
        name for name in families
        if name not in doc
        and not any(name.startswith(p) for p in WILDCARD_PREFIXES))
    assert not missing, (
        f"metric families exported by /metrics but absent from "
        f"docs/OBSERVABILITY.md: {missing}")


def test_exposition_covers_core_families(exposition):
    """The scrape itself must be meaningful: the daemon drive above
    has to emit the serve, query and accounting families the doc
    table anchors on."""
    families = _exposition_families(exposition)
    for name in ("repro_serve_requests_total", "repro_serve_latency_ms",
                 "repro_queries_total", "repro_query_latency_ms"):
        assert name in families, f"{name} missing from the drive"


def test_documented_accounting_families_match_code():
    """The six accounting families in the doc exist in api.py -- a
    rename on either side fails here."""
    doc = open(DOC, encoding="utf-8").read()
    src = open(os.path.join(os.path.dirname(DOC), os.pardir, "src",
                            "repro", "api.py"), encoding="utf-8").read()
    for name in ("repro_query_bytes_mapped_total",
                 "repro_query_bytes_copied_total",
                 "repro_query_bytes_decompressed_total",
                 "repro_query_bytes_cache_total",
                 "repro_query_postings_scanned_total",
                 "repro_query_postings_bytes_total"):
        assert name in doc, f"{name} undocumented"
        assert name in src, f"{name} documented but gone from api.py"


# ---------------------------------------------------------------------------
# commands named in docs / CI must exist
# ---------------------------------------------------------------------------

COMMAND_DOCS = (["README.md", "DESIGN.md", "EXPERIMENTS.md",
                 ".github/workflows/ci.yml",
                 ".claude/skills/verify/SKILL.md"]
                + sorted(os.path.relpath(p, ROOT) for p in
                         glob.glob(os.path.join(ROOT, "docs", "*.md"))))

MODULE_RE = re.compile(r"python3? -m (repro(?:\.[a-z_]+)+)")
#: ``python -m repro <verb>``, a backticked `` `repro <verb> `` and a
#: shell line starting ``repro <verb>`` / ``$ repro <verb>``.
VERB_RE = re.compile(r"(?:python3? -m repro|`repro|^\s*(?:\$ )?repro)"
                     r" +([a-z][a-z-]*)", re.MULTILINE)


#: What went when the four on-disk formats, the load-time decoder
#: switches and the ``auto`` eraser were collapsed.  A doc, CI step or
#: skill line that names one of these describes code that is gone.
REMOVED_NAMES = (
    "--format-version", "format_version=", 'eraser_mode="auto"',
    'make_eraser("auto"', "REPRO_VECTORIZED_MIN_BYTES",
    "vectorized_min_bytes", "min_bytes=", "V4_CODECS",
    "choose_scheme", "compress_column",
    "serialize_columnar_index_blocked", "deserialize_columnar_index_blocked",
    "scan_blocked_container", "guarded_deserialize_columnar",
    "serialize_columnar_index_v3", "serialize_columnar_index_v4",
    "deserialize_columnar_index_v3", "deserialize_columnar_index_v4",
    "serialize_columnar_postings_v3", "serialize_columnar_postings_v4",
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
)

#: (name, context): a removed option whose spelling something else still
#: owns -- the column decoders keep their own ``vectorized=`` -- is
#: stale only in a paragraph that also names the context.
REMOVED_IN_CONTEXT = (("vectorized=", "JoinBasedSearch"),)


def _mentions(pattern):
    found = {}
    for rel in COMMAND_DOCS:
        path = os.path.join(ROOT, rel)
        if not os.path.exists(path):
            continue
        text = open(path, encoding="utf-8").read()
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
        for rel in COMMAND_DOCS:
            path = os.path.join(ROOT, rel)
            if not os.path.exists(path):
                continue
            text = open(path, encoding="utf-8").read()
            for name in REMOVED_NAMES:
                # not inside a longer name (`decompress_column` stays)
                if re.search(r"(?<![A-Za-z_])" + re.escape(name), text):
                    found.setdefault(name, rel)
            for name, context in REMOVED_IN_CONTEXT:
                if any(name in paragraph and context in paragraph
                       for paragraph in re.split(r"\n\s*\n", text)):
                    found.setdefault(f"{context}({name}...)", rel)
        assert not found, f"docs name what was removed: {found}"
        # ... and they really are gone from the code the docs describe.
        import repro.api
        import repro.cache
        import repro.diskdb
        import repro.index.compression
        import repro.index.lazydisk
        import repro.index.storage
        import repro.obs.account
        import repro.serve.sharding

        for name in REMOVED_NAMES:
            if name.isidentifier():
                for owner in (repro.diskdb, repro.index.compression,
                              repro.index.lazydisk, repro.index.storage,
                              repro.api, repro.api.XMLDatabase,
                              repro.cache.QueryCache, repro.obs.account,
                              repro.obs.account.ResourceAccount,
                              repro.serve.sharding):
                    assert not hasattr(owner, name), (owner, name)

    def test_hybrid_row_names_no_estimator(self):
        """The hybrid reads the level's exact join size; ``estimator=``
        is `explain`'s and the audit's argument, not its."""
        text = open(os.path.join(ROOT, "docs", "API.md"),
                    encoding="utf-8").read()
        rows = [line for line in text.splitlines()
                if line.startswith("| `HybridTopKSearch(")]
        assert rows and not any("estimat" in row for row in rows), rows

    def test_modules_are_importable(self):
        modules = _mentions(MODULE_RE)
        assert "repro.bench.harness" in modules, "scan found nothing"
        missing = {name: rel for name, rel in modules.items()
                   if not _importable(name)}
        assert not missing, f"docs name modules that are gone: {missing}"

    def test_verbs_exist_in_the_cli(self):
        from repro.cli import build_parser

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        verbs = _mentions(VERB_RE)
        assert "serve" in verbs and "replay" in verbs, "scan found nothing"
        missing = {verb: rel for verb, rel in verbs.items()
                   if verb not in sub.choices}
        assert not missing, f"docs name CLI verbs that are gone: {missing}"
