"""Fault-injected disk I/O: injector determinism, retry healing, and
the end-to-end guarantee that a database loaded through a faulty disk
either answers *identically* to a clean load or fails with a typed
error -- never in between.  The faulty disk is `tests/faults.py`, put
under the library's one opener; the library reads every file under
`DEFAULT_POLICY` with or without it.

The suite honors ``REPRO_FAULT_SEED`` (the CI reliability job runs it
under two seeds) so the probabilistic paths get fresh coverage without
giving up reproducibility: a failure always reports the seed to replay.
"""

import io
import os

import pytest

from repro import XMLDatabase
from repro.cli import EXIT_CORRUPT, main
from repro.diskdb import load_database, read_meta, save_database
from repro.reliability import (DEFAULT_POLICY, DatabaseCorruptError,
                               DatabaseFormatError, RetryExhaustedError,
                               RetryPolicy)
from repro.reliability.io import read_bytes
from tests.conftest import SMALL_XML
from tests.faults import (BIT_FLIP, IO_ERROR, LATENCY, SHORT_READ,
                          FaultInjector, InjectedFault, failing_disk,
                          faulty_disk)

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

QUERIES = ["xml data", "keyword search", "data models", "xml",
           "relational data", "top data", "search processing",
           "keyword data xml", "title", "abstract"]


@pytest.fixture(scope="module")
def db_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("faults") / "db")
    db = XMLDatabase.from_xml_text(SMALL_XML)
    db.columnar_index
    db.inverted_index
    save_database(db, path)
    return path


def _answers(db):
    """A comparable transcript of 50 queries (5 passes over 10)."""
    out = []
    for _pass in range(5):
        for query in QUERIES:
            results = db.search(query)
            out.append([(r.node.dewey, round(r.score, 12))
                        for r in results])
    return out


# ---------------------------------------------------------------------------
# FaultInjector unit behavior
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_same_seed_same_fault_sequence(self):
        a = FaultInjector(error_rate=0.3, short_read_rate=0.1, seed=SEED)
        b = FaultInjector(error_rate=0.3, short_read_rate=0.1, seed=SEED)
        assert [a.next_fault() for _ in range(200)] == \
            [b.next_fault() for _ in range(200)]

    def test_reset_rewinds(self):
        inj = FaultInjector(error_rate=0.5, seed=SEED)
        first = [inj.next_fault() for _ in range(50)]
        inj.reset()
        assert [inj.next_fault() for _ in range(50)] == first
        assert sum(inj.injected.values()) == first.count(IO_ERROR)

    def test_script_overrides_rates(self):
        inj = FaultInjector(error_rate=1.0,
                            script=[None, IO_ERROR, SHORT_READ])
        assert inj.next_fault() is None
        assert inj.next_fault() == IO_ERROR
        assert inj.next_fault() == SHORT_READ
        assert inj.next_fault() is None  # exhausted-then-clean
        assert inj.injected[IO_ERROR] == 1
        assert inj.injected[SHORT_READ] == 1

    def test_unknown_scripted_fault_rejected(self):
        inj = FaultInjector(script=["disk-on-fire"])
        with pytest.raises(ValueError, match="disk-on-fire"):
            inj.next_fault()

    def test_rates_validated(self):
        with pytest.raises(ValueError, match="error_rate"):
            FaultInjector(error_rate=1.5)

    def test_wrapped_file_io_error(self):
        inj = FaultInjector(script=[IO_ERROR])
        with inj.wrap(io.BytesIO(b"hello"), "x.bin") as fh:
            with pytest.raises(InjectedFault) as err:
                fh.read()
        assert err.value.kind == IO_ERROR
        assert err.value.path == "x.bin"
        assert isinstance(err.value, IOError)

    def test_wrapped_file_short_read_forces_eof(self):
        inj = FaultInjector(script=[SHORT_READ])
        fh = inj.wrap(io.BytesIO(b"0123456789"), "x.bin")
        chunk = fh.read(10)
        assert 0 < len(chunk) < 10
        assert fh.read(10) == b""  # premature EOF, not a resync

    def test_wrapped_file_bit_flip(self):
        inj = FaultInjector(script=[BIT_FLIP], seed=SEED)
        fh = inj.wrap(io.BytesIO(b"\x00" * 32), "x.bin")
        data = fh.read()
        assert len(data) == 32
        assert sum(bin(b).count("1") for b in data) == 1

    def test_latency_uses_injected_sleep(self):
        sleeps = []
        inj = FaultInjector(script=[LATENCY], latency_ms=25.0,
                            sleep=sleeps.append)
        fh = inj.wrap(io.BytesIO(b"abc"), "x.bin")
        assert fh.read() == b"abc"
        assert sleeps == [0.025]

    def test_metrics_published(self):
        """Fired faults are counted per kind in ``injected``."""
        inj = FaultInjector(script=[IO_ERROR, BIT_FLIP])
        fh = inj.wrap(io.BytesIO(b"abc"), "x.bin")
        with pytest.raises(InjectedFault):
            fh.read()
        assert inj.injected[IO_ERROR] == 1
        assert inj.injected[BIT_FLIP] == 0
        fh.read()
        assert inj.injected[BIT_FLIP] == 1


# ---------------------------------------------------------------------------
# RetryPolicy unit behavior
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_transient_fault_heals(self):
        calls = {"n": 0}
        sleeps = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise InjectedFault("boom", kind=IO_ERROR, path="x")
            return "ok"

        policy = RetryPolicy(max_attempts=3, sleep=sleeps.append)
        assert policy.call(flaky, op="test") == "ok"
        assert calls["n"] == 3          # three attempts
        assert len(sleeps) == 2         # two retries, each backed off

    def test_exhaustion_raises_typed_with_cause(self):
        calls = {"n": 0}

        def always():
            calls["n"] += 1
            raise InjectedFault("boom", kind=IO_ERROR, path="x")

        policy = RetryPolicy(max_attempts=2, sleep=lambda _s: None)
        with pytest.raises(RetryExhaustedError) as err:
            policy.call(always, op="test")
        assert err.value.attempts == 2
        assert calls["n"] == 2
        assert isinstance(err.value.__cause__, InjectedFault)

    def test_missing_file_is_permanent(self):
        calls = {"n": 0}

        def missing():
            calls["n"] += 1
            raise FileNotFoundError("gone")

        policy = RetryPolicy(max_attempts=5, sleep=lambda _s: None)
        with pytest.raises(FileNotFoundError):
            policy.call(missing)
        assert calls["n"] == 1

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_ms=10.0, multiplier=2.0, jitter=0.0)
        assert policy.delay_ms(1) == 10.0
        assert policy.delay_ms(2) == 20.0
        assert policy.delay_ms(3) == 40.0

    def test_max_attempts_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


# ---------------------------------------------------------------------------
# read_bytes through faults
# ---------------------------------------------------------------------------


class TestFaultyReadBytes:
    def test_transient_error_heals(self, tmp_path, monkeypatch):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"payload" * 100)
        faulty_disk(monkeypatch, FaultInjector(script=[IO_ERROR]))
        assert DEFAULT_POLICY.call(
            lambda: read_bytes(str(path))) == b"payload" * 100

    def test_unretried_injector_surfaces_raw_fault(self, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"payload")
        faulty_disk(monkeypatch, FaultInjector(script=[IO_ERROR]))
        with pytest.raises(InjectedFault):
            read_bytes(str(path))


# ---------------------------------------------------------------------------
# End-to-end: load_database through a faulty disk
# ---------------------------------------------------------------------------


class TestFaultyLoads:
    def test_transient_faults_yield_identical_answers(self, db_dir,
                                                      monkeypatch):
        expected = _answers(load_database(db_dir))
        faulty_disk(monkeypatch, FaultInjector(
            error_rate=0.2, latency_rate=0.1, latency_ms=0.0, seed=SEED),
            max_attempts=6)
        faulty = load_database(db_dir)
        assert _answers(faulty) == expected, (
            f"faulty-disk load diverged from clean load "
            f"(REPRO_FAULT_SEED={SEED})")

    def test_default_policy_installed_with_injector(self, db_dir,
                                                    monkeypatch):
        # The library retries with no policy passed: one transient
        # fault never surfaces.
        inj = faulty_disk(monkeypatch, FaultInjector(script=[IO_ERROR]))
        db = load_database(db_dir)
        assert db.search("xml data")
        assert inj.injected[IO_ERROR] == 1

    def test_permanent_fault_is_typed(self, db_dir, monkeypatch):
        faulty_disk(monkeypatch, FaultInjector(error_rate=1.0, seed=SEED))
        with pytest.raises(DatabaseCorruptError) as err:
            load_database(db_dir)
        assert isinstance(err.value.__cause__, RetryExhaustedError)

    def test_short_reads_are_typed(self, db_dir, monkeypatch):
        # A truncated meta.json raises the parent DatabaseFormatError;
        # a truncated data file fails its digest (DatabaseCorruptError,
        # the subclass).  Either way: typed, never silent.
        faulty_disk(monkeypatch,
                    FaultInjector(short_read_rate=1.0, seed=SEED))
        with pytest.raises(DatabaseFormatError):
            load_database(db_dir)

    def test_bit_flips_are_typed(self, db_dir, monkeypatch):
        faulty_disk(monkeypatch,
                    FaultInjector(bit_flip_rate=1.0, seed=SEED))
        with pytest.raises(DatabaseFormatError):
            load_database(db_dir)


class TestAFileThatNeverReads:
    """A real ``EIO`` on every attempt, with no injector: the library's
    own retry runs out and the error is typed, naming the file."""

    def test_columnar_eio_is_corrupt_naming_the_file(self, db_dir,
                                                     monkeypatch):
        failing_disk(monkeypatch, "columnar.bin")
        with pytest.raises(DatabaseCorruptError) as err:
            load_database(db_dir)
        assert err.value.file == "columnar.bin"
        assert "columnar.bin" in str(err.value)
        assert isinstance(err.value.__cause__, RetryExhaustedError)
        assert err.value.__cause__.attempts == DEFAULT_POLICY.max_attempts

    def test_search_exits_4(self, db_dir, monkeypatch, capsys):
        failing_disk(monkeypatch, "columnar.bin")
        assert main(["search", db_dir, "xml data"]) == EXIT_CORRUPT
        err = capsys.readouterr().err
        assert "columnar.bin" in err and "Traceback" not in err

    def test_meta_eio_is_corrupt_naming_the_file(self, db_dir,
                                                 monkeypatch):
        failing_disk(monkeypatch, "meta.json")
        with pytest.raises(DatabaseCorruptError) as err:
            read_meta(db_dir)
        assert err.value.file == "meta.json"
        assert isinstance(err.value.__cause__, RetryExhaustedError)
