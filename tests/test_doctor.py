"""Tests for the index analytics report (`repro.obs.doctor`)."""

import json
import os

import pytest

from repro.diskdb import save_database
from repro.obs.doctor import (DOCTOR_SCHEMA, doctor_report,
                              format_doctor_report, run_checks)
from repro.serve.capture import WorkloadCapture


@pytest.fixture
def flat_dir(tmp_path, small_db):
    path = str(tmp_path / "db_flat")
    save_database(small_db, path)
    return path


@pytest.fixture
def sharded_dir(tmp_path, small_db):
    path = str(tmp_path / "db_sharded")
    save_database(small_db, path, shards=2)
    return path


class TestDoctorReport:
    def test_schema_and_postings_shape(self, flat_dir, small_db):
        report = doctor_report(flat_dir)
        assert report["schema"] == DOCTOR_SCHEMA
        assert report["format_version"] == 5
        assert not report["sharded"]
        postings = report["postings"]
        assert postings["terms"] == len(small_db.columnar_index.vocabulary)
        assert postings["total_bytes"] > 0
        assert postings["size_bytes"]["max"] >= postings["size_bytes"]["p50"]
        assert postings["heavy_hitters"]
        top = postings["heavy_hitters"][0]
        assert 0.0 < top["share"] <= 1.0

    def test_heavy_hitters_sorted_desc(self, flat_dir):
        hitters = doctor_report(flat_dir)["postings"]["heavy_hitters"]
        sizes = [h["bytes"] for h in hitters]
        assert sizes == sorted(sizes, reverse=True)

    def test_compression_by_level_and_codec(self, flat_dir):
        compression = doctor_report(flat_dir)["compression"]
        assert compression["by_level"]
        for entry in compression["by_level"].values():
            assert entry["raw"] >= entry["compressed"] > 0
            assert 0.0 < entry["ratio"] <= 1.0
        assert set(compression["by_codec"]) <= {"delta", "rle", "varint",
                                                "for"}

    def test_no_codecs_skips_scan(self, flat_dir):
        report = doctor_report(flat_dir, codecs=False)
        assert "compression" not in report

    def test_sharded_skew_and_per_shard(self, sharded_dir):
        report = doctor_report(sharded_dir)
        assert report["sharded"]
        shards = report["shards"]
        assert shards["count"] == 2
        assert len(shards["per_shard"]) == 2
        assert shards["byte_skew"] >= 1.0
        assert shards["term_skew"] >= 1.0
        for entry in shards["per_shard"]:
            assert entry["terms"] > 0
            assert entry["postings_bytes"] > 0

    def test_heavy_hitters_merge_across_shards(self, flat_dir,
                                               sharded_dir):
        """A term split across shards reports its whole-index size."""
        whole = {h["term"]: h["bytes"]
                 for h in doctor_report(flat_dir, heavy=100)
                 ["postings"]["heavy_hitters"]}
        sharded = {h["term"]: h["bytes"]
                   for h in doctor_report(sharded_dir, heavy=100)
                   ["postings"]["heavy_hitters"]}
        assert set(sharded) == set(whole)

    def test_cache_estimate_from_workload(self, tmp_path, flat_dir):
        workload = str(tmp_path / "w.jsonl")
        capture = WorkloadCapture(workload)
        for _ in range(3):
            capture.record("topk", ["xml", "data"], "elca", 5, [],
                           elapsed_ms=1.0)
        capture.record("topk", ["keyword"], "elca", 5, [],
                       elapsed_ms=1.0)
        capture.close()
        cache = doctor_report(flat_dir, workload=workload)["cache"]
        assert cache["queries"] == 4
        assert cache["term_fetches"] == 7
        assert cache["unique_terms"] == 3
        assert cache["max_hit_ratio"] == pytest.approx(4 / 7)
        assert cache["max_bytes_saved"] > 0
        assert cache["working_set_bytes"] > 0
        assert cache["hot_terms"][0]["fetches"] == 3

    def test_format_renders(self, sharded_dir):
        text = format_doctor_report(doctor_report(sharded_dir))
        assert "postings:" in text
        assert "shards: 2" in text
        assert "heavy:" in text


class TestDoctorChecks:
    def test_pass_with_default_thresholds(self, sharded_dir):
        report = doctor_report(sharded_dir)
        assert run_checks(report, max_byte_skew=10.0,
                          max_term_skew=None, max_term_share=None) == []

    def test_byte_skew_violation(self, sharded_dir):
        report = doctor_report(sharded_dir)
        failures = run_checks(report, max_byte_skew=0.5,
                              max_term_skew=None, max_term_share=None)
        assert failures and "byte skew" in failures[0]

    def test_term_share_violation(self, flat_dir):
        report = doctor_report(flat_dir)
        failures = run_checks(report, max_byte_skew=10.0,
                              max_term_skew=None, max_term_share=0.0001)
        assert failures and "share" in failures[0].lower()


class TestDoctorCLI:
    def test_text_and_json(self, sharded_dir, capsys):
        from repro.cli import main

        assert main(["doctor", sharded_dir]) == 0
        assert "repro doctor:" in capsys.readouterr().out
        assert main(["doctor", sharded_dir, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == DOCTOR_SCHEMA

    def test_out_writes_report(self, tmp_path, sharded_dir, capsys):
        from repro.cli import main

        out = str(tmp_path / "doctor.json")
        assert main(["doctor", sharded_dir, "--out", out]) == 0
        assert json.loads(open(out, encoding="utf-8").read())["postings"]

    def test_check_gate_exit_codes(self, sharded_dir, capsys):
        from repro.cli import main

        assert main(["doctor", sharded_dir, "--check",
                     "--max-shard-byte-skew", "10.0"]) == 0
        capsys.readouterr()
        assert main(["doctor", sharded_dir, "--check",
                     "--max-shard-byte-skew", "0.5"]) == 1
        assert "byte skew" in capsys.readouterr().out

    def test_missing_database_exits_3(self, capsys):
        from repro.cli import EXIT_MISSING, main

        assert main(["doctor", "/nonexistent-db"]) == EXIT_MISSING
        assert "error" in capsys.readouterr().err
