"""Tests for workload capture (`repro.serve.capture`) and replay
(`repro.serve.replay`).

The load-bearing property is the round trip: a workload captured from
an inline (``workers=0``) daemon replays against the same database
with every digest matched and zero resource deltas -- replay uses the
same facade calls the daemon's inline mode does, so any divergence is
a real behavior change, not harness noise.
"""

import asyncio
import json
import os

import pytest

from repro.serve.capture import (WORKLOAD_SCHEMA, WorkloadCapture,
                                 read_workload, result_digest)
from repro.serve.replay import format_replay_report, run_replay
from repro.serve.daemon import ServeDaemon
from repro.serve.merge import ShardedDatabase


@pytest.fixture
def db_dir(tmp_path, small_db):
    from repro.diskdb import save_database

    path = str(tmp_path / "db")
    save_database(small_db, path)
    return path


def _drive_inline(db, capture_path, paths):
    """Run an inline daemon over `paths`, capturing to `capture_path`."""
    daemon = ServeDaemon(db, workers=0, capture_path=capture_path)

    async def go():
        await daemon.start()
        statuses = []
        for path in paths:
            status, _ctype, _body = await daemon._dispatch("GET", path)
            statuses.append(status)
        await daemon.stop()
        return statuses

    return asyncio.run(go())


QUERIES = [
    "/topk?q=xml+data&k=5",
    "/search?q=keyword+search",
    "/topk?q=xml&k=3",
    "/topk?q=xml+data&k=5",   # repeat: served from the result cache
]


class TestCapture:
    def test_header_then_entries(self, tmp_path, small_db):
        sharded = ShardedDatabase.from_database(small_db, 2)
        capture = str(tmp_path / "w.jsonl")
        statuses = _drive_inline(sharded, capture, QUERIES)
        assert statuses == [200] * len(QUERIES)
        header, entries = read_workload(capture)
        assert header["schema"] == WORKLOAD_SCHEMA
        assert header["meta"]["shards"] == 2
        assert len(entries) == len(QUERIES)
        first = entries[0]
        assert first["terms"] == ["xml", "data"]
        assert first["endpoint"] == "topk"
        assert first["k"] == 5
        assert first["digest"]
        assert first["offset_ms"] == 0.0
        assert entries[-1]["offset_ms"] >= 0.0

    def test_cached_entry_marked(self, tmp_path, small_db):
        sharded = ShardedDatabase.from_database(small_db, 2)
        capture = str(tmp_path / "w.jsonl")
        _drive_inline(sharded, capture, QUERIES)
        _header, entries = read_workload(capture)
        assert entries[3]["cached"] is True
        # the cache hit re-serves the same body: identical digest
        assert entries[3]["digest"] == entries[0]["digest"]

    def test_accounts_attached_to_evaluated_entries(self, tmp_path,
                                                    small_db):
        sharded = ShardedDatabase.from_database(small_db, 2)
        capture = str(tmp_path / "w.jsonl")
        _drive_inline(sharded, capture, QUERIES)
        _header, entries = read_workload(capture)
        assert all(e.get("account") is not None for e in entries[:3])

    def test_torn_tail_line_tolerated(self, tmp_path, small_db):
        sharded = ShardedDatabase.from_database(small_db, 2)
        capture = str(tmp_path / "w.jsonl")
        _drive_inline(sharded, capture, QUERIES)
        with open(capture, "a", encoding="utf-8") as handle:
            handle.write('{"offset_ms": 1.0, "terms": ["tru')
        _header, entries = read_workload(capture)
        assert len(entries) == len(QUERIES)

    def test_direct_writer_round_trip(self, tmp_path):
        path = str(tmp_path / "w.jsonl")
        capture = WorkloadCapture(path, meta={"note": "unit"})
        capture.record("topk", ["a", "b"], "elca", 5,
                       [{"dewey": [0, 1], "tag": "t", "level": 1,
                         "score": 1.0, "witnesses": [1.0, 0.5]}],
                       elapsed_ms=2.5)
        capture.close()
        header, entries = read_workload(path)
        assert header["meta"] == {"note": "unit"}
        assert entries[0]["result_count"] == 1
        assert entries[0]["digest"] == result_digest(
            [{"dewey": [0, 1], "tag": "t", "level": 1,
              "score": 1.0, "witnesses": [1.0, 0.5]}])

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "other/v9"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="schema"):
            read_workload(str(path))


class TestReplayRoundTrip:
    @pytest.fixture
    def sharded_dir(self, tmp_path, small_db):
        from repro.diskdb import save_database

        path = str(tmp_path / "db_sharded")
        save_database(small_db, path, shards=2)
        return path

    @pytest.fixture
    def captured(self, tmp_path, sharded_dir):
        """Capture from a freshly opened database, exactly as a real
        daemon would (lazy/mmap-backed, the `repro serve` default);
        replays open their own fresh instance the same way, so both
        sides start cache-cold and the resource diff is meaningful."""
        sharded = ShardedDatabase.open(sharded_dir, lazy=True,
                                       verify="lazy")
        capture = str(tmp_path / "w.jsonl")
        _drive_inline(sharded, capture, QUERIES)
        return capture

    def test_exact_round_trip(self, captured, sharded_dir):
        report = run_replay(captured, sharded_dir)
        assert report["digests"]["mismatched"] == 0
        assert report["digests"]["matched"] == len(QUERIES)
        assert report["resources"]["delta"] == {}
        assert report["ops"]["replay_query"]["n"] == len(QUERIES)
        assert report["config"]["scale"] == "replay"

    def test_against_prior_replay(self, captured, sharded_dir):
        first = run_replay(captured, sharded_dir)
        second = run_replay(captured, sharded_dir, against=first)
        assert second["baseline"]["source"] == "prior replay"
        assert second["digests"]["mismatched"] == 0
        assert second["resources"]["delta"] == {}

    def test_mismatch_detected_on_different_db(self, captured):
        """Replaying against a database with different content must
        flag digest mismatches -- the diff is not vacuous."""
        from repro.api import XMLDatabase

        other = XMLDatabase.from_xml_text(
            "<r><a>xml data here</a><b>keyword search xml</b></r>")
        report = run_replay(captured, "other", db=other)
        assert report["digests"]["mismatched"] > 0
        assert report["digests"]["mismatches"][0]["captured"] != \
            report["digests"]["mismatches"][0]["replayed"]

    def test_limit(self, captured, sharded_dir):
        report = run_replay(captured, sharded_dir, limit=2)
        assert report["queries"] == 2

    def test_open_mode_honors_offsets(self, captured, sharded_dir):
        report = run_replay(captured, sharded_dir, mode="open",
                            speed=1000.0)
        assert report["digests"]["mismatched"] == 0
        assert report["config"]["mode"] == "open"

    def test_partial_entries_skip_digest(self, tmp_path, db_dir,
                                         small_db):
        capture = WorkloadCapture(str(tmp_path / "w.jsonl"))
        capture.record("topk", ["xml"], "elca", 3, [], elapsed_ms=1.0,
                       partial=True)
        capture.close()
        report = run_replay(str(tmp_path / "w.jsonl"), db_dir,
                            db=small_db)
        assert report["digests"]["skipped_partial"] == 1
        assert report["digests"]["compared"] == 0

    def test_format_report_renders(self, captured, sharded_dir):
        report = run_replay(captured, sharded_dir)
        text = format_replay_report(report)
        assert "digests:" in text
        assert "no deltas" in text


class TestReplayCLI:
    @pytest.fixture
    def cli_setup(self, tmp_path, small_db):
        from repro.diskdb import save_database

        sharded_dir = str(tmp_path / "db_sharded")
        save_database(small_db, sharded_dir, shards=2)
        capture = str(tmp_path / "w.jsonl")
        _drive_inline(ShardedDatabase.open(sharded_dir, lazy=True,
                                           verify="lazy"),
                      capture, QUERIES)
        return capture, sharded_dir

    def test_repro_replay_round_trip(self, tmp_path, cli_setup, capsys):
        from repro.cli import main

        capture, sharded_dir = cli_setup
        out = str(tmp_path / "replay.json")
        assert main(["replay", capture, sharded_dir, "--out", out,
                     "--fail-on-mismatch"]) == 0
        assert "matched" in capsys.readouterr().out
        report = json.loads(open(out, encoding="utf-8").read())
        assert report["digests"]["mismatched"] == 0

    def test_missing_workload_exits_3(self, db_dir, capsys):
        from repro.cli import EXIT_MISSING, main

        assert main(["replay", "/nonexistent.jsonl", db_dir]) == \
            EXIT_MISSING
        assert "error" in capsys.readouterr().err


class TestAccessLogAccount:
    def test_fields_include_account(self):
        from repro.obs.distributed import AccessLog

        assert "account" in AccessLog.FIELDS

    def test_daemon_records_account_in_access_log(self, tmp_path,
                                                  small_db):
        sharded = ShardedDatabase.from_database(small_db, 2)
        log_path = str(tmp_path / "access.jsonl")
        daemon = ServeDaemon(sharded, workers=0,
                             access_log_path=log_path)

        async def go():
            await daemon.start()
            status, _, _ = await daemon._dispatch(
                "GET", "/topk?q=xml+data&k=5")
            assert status == 200
            await daemon.stop()

        asyncio.run(go())
        records = [json.loads(line)
                   for line in open(log_path, encoding="utf-8")]
        assert any("account" in r and r["account"] for r in records)
