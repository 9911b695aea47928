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


@pytest.mark.parametrize("verb", ["search", "topk"])
class TestDeadlineExitCodes:
    """docs/RELIABILITY.md "CLI": an expired budget exits 5; with
    ``--partial`` it exits 0 and says what the partial answer proves."""

    def test_expired_budget_exits_5(self, verb, db_dir, capsys):
        from repro.cli import EXIT_DEADLINE

        assert main([verb, db_dir, "xml data",
                     "--timeout-ms", "0"]) == EXIT_DEADLINE
        assert "budget" in capsys.readouterr().err

    def test_partial_exits_0_with_a_trailer(self, verb, db_dir, capsys):
        assert main([verb, db_dir, "xml data", "--timeout-ms", "0",
                     "--partial"]) == 0
        assert "(partial: " in capsys.readouterr().out


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

    @pytest.mark.parametrize("papers", ["0", "-5"])
    def test_generate_refuses_a_paper_count_below_one(self, tmp_path,
                                                      capsys, papers):
        out = str(tmp_path / "gen")
        assert main(["generate", "dblp", out, "--papers", papers]) == 1
        assert capsys.readouterr().err == \
            "error: n_papers must be positive\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("body, message", [
        ("<a><b>x&#xD800;y</b></a>",
         "invalid character reference &#xD800; (at offset 7)"),
        ("<a>&#0;</a>", "invalid character reference &#0; (at offset 3)"),
        ("<a>x\x00y</a>",
         "character U+0000 is not allowed in XML (at offset 4)"),
    ])
    def test_index_refuses_characters_xml_forbids(self, tmp_path, capsys,
                                                  body, message):
        source, out = tmp_path / "bad.xml", str(tmp_path / "db")
        source.write_text(body, encoding="utf-8")
        assert main(["index", str(source), out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.path.exists(out)


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


@pytest.fixture
def sharded_dir(tmp_path, xml_file):
    from repro.api import XMLDatabase
    from repro.diskdb import save_database

    with open(xml_file, encoding="utf-8") as handle:
        db = XMLDatabase.from_xml_text(handle.read())
    out = str(tmp_path / "db_sharded")
    save_database(db, out, shards=2)
    return out


class TestInfoSharded:
    """Satellite: `repro info` on a sharded directory breaks the index
    down per shard -- terms, postings and on-disk bytes."""

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

    @pytest.mark.parametrize("shards", (None, 2))
    def test_codec_mix_counts_every_column(self, xml_file, tmp_path,
                                           shards, capsys):
        """The codec line tallies each column's codec from the payload
        headers: one per level of every term, in every container."""
        import re

        from repro.api import XMLDatabase
        from repro.index import storage

        with open(xml_file, encoding="utf-8") as handle:
            db = XMLDatabase.from_xml_text(handle.read())
        out = str(tmp_path / "db")
        db.save(out, shards=shards)
        want = {}
        for name in ([os.path.join(f"shard-{i:02d}", "columnar.bin")
                      for i in range(shards)] if shards
                     else ["columnar.bin"]):
            with open(os.path.join(out, name), "rb") as handle:
                blob = handle.read()
            for ref in storage.scan_container(blob)[1]:
                for scheme, _ in storage.parse_payload(
                        ref.term, blob[ref.offset: ref.offset
                                       + ref.length])[2]:
                    want[scheme] = want.get(scheme, 0) + 1
        assert main(["info", out]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("codecs:"))
        got = {codec: int(count) for codec, count
               in re.findall(r"(\w+) (\d+) \(", line)}
        assert got == want

    @pytest.mark.parametrize("meta", [
        b'{"format_version": 5, "n_no',         # torn mid-write
        b"[]", b"null", b"3",
        b'{"format_version": 5, "shards": "x"}',
    ])
    def test_unusable_meta_exits_4(self, sharded_dir, meta, capsys):
        """A torn or wrong-shaped ``meta.json`` is "database corrupt",
        not a traceback."""
        from repro.cli import EXIT_CORRUPT

        with open(os.path.join(sharded_dir, "meta.json"), "wb") as fh:
            fh.write(meta)
        assert main(["info", sharded_dir]) == EXIT_CORRUPT
        assert "meta.json" in capsys.readouterr().err

    def test_missing_database_exits_3(self, capsys):
        from repro.cli import EXIT_MISSING

        assert main(["info", "/nonexistent-db"]) == EXIT_MISSING
        assert "error" in capsys.readouterr().err


class TestQueryVerbsSharded:
    """`explain` and `trace` on a sharded directory print one section
    per shard, as `info` does: a sharded query runs on each shard."""

    def test_explain_per_shard(self, sharded_dir, capsys):
        assert main(["explain", sharded_dir, "xml data"]) == 0
        out = capsys.readouterr().out
        assert "shard 0:" in out and "shard 1:" in out
        assert out.count("execution order") == 2
        assert out.count("totals:") == 2

    @pytest.mark.parametrize("extra", ([], ["-k", "3"]), ids=["all", "topk"])
    def test_trace_per_shard(self, sharded_dir, tmp_path, capsys, extra):
        import json

        path = str(tmp_path / "trace.jsonl")
        assert main(["trace", sharded_dir, "xml data", "--out", path]
                    + extra) == 0
        out = capsys.readouterr().out
        assert "shard 0:" in out and "shard 1:" in out
        assert out.count("results in") == 2
        with open(path, encoding="utf-8") as handle:
            spans = [json.loads(line) for line in handle]
        assert sum(span["parent_id"] is None for span in spans) == 2


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
