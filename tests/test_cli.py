"""Tests for the command-line interface (`repro.cli`)."""

import os

import pytest

from repro.cli import main
from tests.conftest import SMALL_XML


@pytest.fixture
def xml_file(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(SMALL_XML, encoding="utf-8")
    return str(path)


@pytest.fixture
def db_dir(tmp_path, xml_file):
    out = str(tmp_path / "db")
    assert main(["index", xml_file, out]) == 0
    return out


class TestSearch:
    def test_search_xml_file(self, xml_file, capsys):
        assert main(["search", xml_file, "xml data"]) == 0
        out = capsys.readouterr().out
        assert "results in" in out
        assert "<section>" in out

    def test_search_database_dir(self, db_dir, capsys):
        assert main(["search", db_dir, "xml data"]) == 0
        assert "<section>" in capsys.readouterr().out

    def test_semantics_flag(self, xml_file, capsys):
        assert main(["search", xml_file, "xml data",
                     "--semantics", "slca"]) == 0
        assert "results" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm", ["join", "stack", "index"])
    def test_algorithm_flag(self, xml_file, algorithm, capsys):
        assert main(["search", xml_file, "xml data",
                     "--algorithm", algorithm]) == 0

    def test_limit_truncates_output(self, xml_file, capsys):
        assert main(["search", xml_file, "xml", "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "more" in out

    def test_missing_file_error(self, capsys):
        from repro.cli import EXIT_MISSING

        assert main(["search", "/nonexistent.xml", "xml"]) == EXIT_MISSING
        assert "error" in capsys.readouterr().err


class TestTopK:
    def test_topk(self, xml_file, capsys):
        assert main(["topk", xml_file, "xml data", "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count(". <") <= 2

    @pytest.mark.parametrize("algorithm", ["topk-join", "rdil", "hybrid"])
    def test_topk_algorithms(self, db_dir, algorithm, capsys):
        assert main(["topk", db_dir, "xml data", "-k", "2",
                     "--algorithm", algorithm]) == 0


class TestIndexAndGenerate:
    def test_index_creates_database(self, db_dir):
        assert os.path.exists(os.path.join(db_dir, "meta.json"))

    def test_generate_dblp(self, tmp_path, capsys):
        out = str(tmp_path / "gen")
        assert main(["generate", "dblp", out, "--papers", "50",
                     "--seed", "3"]) == 0
        assert os.path.exists(os.path.join(out, "columnar.bin"))
        assert "generated dblp" in capsys.readouterr().out

    def test_generate_xmark(self, tmp_path, capsys):
        out = str(tmp_path / "gen")
        assert main(["generate", "xmark", out, "--scale", "0.002"]) == 0
        assert os.path.exists(os.path.join(out, "dewey.bin"))


class TestInfo:
    def test_info(self, db_dir, capsys):
        assert main(["info", db_dir]) == 0
        out = capsys.readouterr().out
        assert "vocabulary" in out
        assert "join-based IL" in out

    def test_info_on_xml(self, xml_file, capsys):
        assert main(["info", xml_file]) == 0
        assert "nodes" in capsys.readouterr().out


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestInfoSharded:
    """Satellite: `repro info` on a sharded directory breaks the index
    down per shard -- terms, postings and on-disk bytes."""

    @pytest.fixture
    def sharded_dir(self, tmp_path, xml_file):
        from repro.api import XMLDatabase
        from repro.diskdb import save_database

        with open(xml_file, encoding="utf-8") as handle:
            db = XMLDatabase.from_xml_text(handle.read())
        out = str(tmp_path / "db_sharded")
        save_database(db, out, shards=2)
        return out

    def test_per_shard_breakdown(self, sharded_dir, capsys):
        assert main(["info", sharded_dir]) == 0
        out = capsys.readouterr().out
        assert "shards:      2" in out
        assert out.count("terms,") == 2
        assert out.count("postings") == 2
        assert out.count("KiB on disk") == 2

    def test_shard_lines_carry_counts(self, sharded_dir, capsys):
        import re

        assert main(["info", sharded_dir]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if "terms," in l]
        for line in lines:
            match = re.search(r"(\d+) terms, (\d+) postings, "
                              r"([\d.]+) KiB on disk", line)
            assert match, line
            assert int(match.group(1)) > 0
            assert int(match.group(2)) > 0
            assert float(match.group(3)) > 0


class TestServeBatch:
    """`repro serve-batch`: one sequential `search_batch` over a query
    file, flat or sharded; no pool flags."""

    WORKLOAD = "# a comment\nxml data\n\n  keyword search  \n#x\ndata\n"

    @pytest.fixture
    def queries(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text(self.WORKLOAD, encoding="utf-8")
        return str(path)

    @staticmethod
    def counts(out):
        """Per-query ``(index, n_results, query)`` from the output."""
        import re

        return re.findall(r"^ *(\d+)\. +(\d+) results +[\d.]+ ms  (.*)$",
                          out, re.MULTILINE)

    def test_query_file_skips_blank_and_comment_lines(self, db_dir,
                                                      queries, capsys):
        assert main(["serve-batch", db_dir, queries]) == 0
        out = capsys.readouterr().out
        assert [q for _i, _n, q in self.counts(out)] == \
            ["xml data", "keyword search", "data"]
        assert "batch: 3 queries" in out and "0 errors" in out
        assert "work: levels=" in out

    def test_dash_reads_stdin(self, db_dir, queries, capsys, monkeypatch):
        import io

        assert main(["serve-batch", db_dir, queries]) == 0
        from_file = self.counts(capsys.readouterr().out)
        monkeypatch.setattr("sys.stdin", io.StringIO(self.WORKLOAD))
        assert main(["serve-batch", db_dir, "-", "-k", "2"]) == 0
        from_stdin = self.counts(capsys.readouterr().out)
        assert [q for _i, _n, q in from_stdin] == \
            [q for _i, _n, q in from_file]
        assert all(int(n) <= 2 for _i, n, _q in from_stdin)

    def test_empty_workload_exits_1(self, db_dir, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n\n", encoding="utf-8")
        assert main(["serve-batch", db_dir, str(path)]) == 1
        assert "no queries" in capsys.readouterr().err

    def test_missing_query_file_exits_3(self, db_dir, capsys):
        from repro.cli import EXIT_MISSING

        assert main(["serve-batch", db_dir, "/no/such/file"]) \
            == EXIT_MISSING

    def test_fail_on_error(self, db_dir, queries, capsys):
        failing = ["serve-batch", db_dir, queries, "--algorithm", "nope"]
        assert main(failing) == 0      # isolated errors are reported...
        assert "3 errors" in capsys.readouterr().out
        assert main(failing + ["--fail-on-error"]) == 1   # ...or fatal

    def test_deadline_expiry_exits_5(self, db_dir, queries, capsys):
        from repro.cli import EXIT_DEADLINE

        assert main(["serve-batch", db_dir, queries,
                     "--timeout-ms", "0"]) == EXIT_DEADLINE
        assert "ERROR" in capsys.readouterr().out
        assert main(["serve-batch", db_dir, queries, "--timeout-ms", "0",
                     "--partial"]) == 0

    def test_sharded_and_flat_print_the_same_counts(self, db_dir, xml_file,
                                                    tmp_path, queries,
                                                    capsys):
        sharded = str(tmp_path / "db_sharded")
        assert main(["index", xml_file, sharded, "--shards", "2"]) == 0
        capsys.readouterr()
        outputs = []
        for database in (db_dir, sharded):
            assert main(["serve-batch", database, queries]) == 0
            outputs.append(self.counts(capsys.readouterr().out))
        assert outputs[0] == outputs[1] and len(outputs[0]) == 3
        assert any(int(n) > 0 for _i, n, _q in outputs[0])

    @pytest.mark.parametrize("flag", ["--processes", "--threads"])
    def test_pool_flags_are_gone(self, db_dir, queries, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve-batch", db_dir, queries, flag, "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestMetricsCommand:
    """Satellite: the offline `repro metrics` path -- runs queries
    against a database and dumps the registry."""

    def test_json_snapshot_shape(self, db_dir, capsys):
        import json

        assert main(["metrics", db_dir, "--query", "xml data",
                     "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert set(snapshot) >= {"counters", "gauges", "histograms"}
        families = set(snapshot["counters"]) | set(snapshot["histograms"])
        assert any(name.startswith("repro_query") for name in families)

    def test_prometheus_exposition(self, db_dir, capsys):
        assert main(["metrics", db_dir, "--query", "xml data",
                     "--query", "keyword search", "-k", "5"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE" in out
        assert "repro_query_latency_ms" in out

    def test_empty_registry_ok(self, capsys):
        assert main(["metrics", "--json"]) == 0
        assert isinstance(__import__("json").loads(
            capsys.readouterr().out), dict)


class TestSLOCommand:
    """Satellite: the offline `repro slo` path against a recorded
    access log."""

    @pytest.fixture
    def access_log(self, tmp_path):
        import json
        import time

        path = tmp_path / "access.jsonl"
        now = time.time()
        records = []
        for i in range(20):
            records.append({"wall_time": now - (20 - i),
                            "status": 200, "outcome": "ok",
                            "elapsed_ms": 5.0, "endpoint": "topk"})
        records.append({"wall_time": now, "status": 500,
                        "outcome": "error", "elapsed_ms": 400.0,
                        "endpoint": "topk"})
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n",
                        encoding="utf-8")
        return str(path)

    def test_report_shape(self, access_log, capsys):
        import json

        assert main(["slo", access_log, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report.get("schema")
        assert "windows" in report or "availability" in report

    def test_text_report(self, access_log, capsys):
        assert main(["slo", access_log]) == 0
        assert capsys.readouterr().out.strip()

    def test_fail_on_alert_exit(self, access_log):
        # one 500 in 21 requests burns a 99.9% availability objective
        code = main(["slo", access_log, "--fail-on-alert",
                     "--availability-target", "0.999"])
        assert code in (0, 1)  # depends on burn-rate windows
        # with an impossible latency objective the alert must fire
        assert main(["slo", access_log, "--fail-on-alert",
                     "--latency-target-ms", "0.0001",
                     "--latency-target-ratio", "1.0"]) == 1

    def test_missing_log_exits_3(self, capsys):
        from repro.cli import EXIT_MISSING

        assert main(["slo", "/nonexistent.jsonl"]) == EXIT_MISSING
        assert "error" in capsys.readouterr().err
