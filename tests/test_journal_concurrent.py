"""Concurrent ``SweepJournal`` readers against a live, writing sweep.

The journal's contract is that *readers never see garbage*: every
record is checksummed and appends are flushed+fsynced, so a reader
sampling the file mid-sweep sees a checksum-valid prefix — at worst one
torn trailing line (which ``read()`` tolerates and ``scan()`` flags
only in final position).  These tests hammer that contract with reader
threads polling while a supervised parallel sweep (and a raw writer
loop) appends.
"""

import json
import threading
import time

from repro.resilience.errors import JournalError
from repro.resilience.runner import SweepJournal, _record_checksum
from repro.sim.config import SystemConfig


def _assert_valid_prefix(journal: SweepJournal) -> int:
    """Every scanned record except possibly the last must be intact;
    returns the number of valid records seen."""
    entries = list(journal.scan())
    for position, (number, _line, record) in enumerate(entries):
        if record is None:
            assert position == len(entries) - 1, (
                f"mid-file corruption at line {number} visible to a "
                f"concurrent reader")
    return sum(1 for _n, _l, record in entries if record is not None)


class TestConcurrentReaders:
    def test_readers_see_only_valid_prefixes_of_supervised_parallel_sweep(
            self, tmp_path):
        """N reader threads poll scan()/read() while a supervised
        parallel sweep writes; no reader ever observes a bad prefix."""
        from repro.perf.parallel import parallel_sweep
        from repro.resilience.supervisor import SupervisionPolicy

        journal_path = tmp_path / "live.jsonl"
        journal = SweepJournal(journal_path)
        stop = threading.Event()
        problems = []
        observed_counts = []

        def _reader():
            while not stop.is_set():
                if not journal_path.exists():
                    time.sleep(0.002)
                    continue
                try:
                    observed_counts.append(_assert_valid_prefix(journal))
                    # read() must either parse cleanly or (only in a
                    # torn-tail race) still never raise mid-file errors.
                    header, cells = journal.read()
                    assert header["type"] == "header"
                    for record in cells.values():
                        assert record["checksum"] == \
                            _record_checksum(record)
                except JournalError:
                    # write_header() briefly unlinks before the first
                    # append; a reader in that window sees no file/header
                    continue
                except AssertionError as exc:
                    problems.append(repr(exc))
                    return
                time.sleep(0.002)

        readers = [threading.Thread(target=_reader) for _ in range(3)]
        for thread in readers:
            thread.start()
        try:
            report = parallel_sweep(
                SystemConfig(seed=42), ["gups", "mcf"],
                trace_length=4_000, seed=42,
                designs=("vipt", "seesaw"),
                journal_path=journal_path, jobs=2,
                policy=SupervisionPolicy())
        finally:
            stop.set()
            for thread in readers:
                thread.join(30)
        assert not problems, problems
        assert report.ok and report.executed == 4
        # the readers actually raced the writer (saw intermediate sizes)
        assert observed_counts, "readers never sampled the journal"
        assert max(observed_counts) >= 1

    def test_reader_tolerates_torn_tail_while_writer_appends(
            self, tmp_path):
        """A raw writer thread appends records (including a simulated
        torn final write); readers must treat the torn bytes as the
        (ignorable) trailing line only."""
        journal_path = tmp_path / "torn.jsonl"
        journal = SweepJournal(journal_path, min_free_bytes=None)
        journal.write_header({"workloads": ["gups"], "designs": ["vipt"],
                              "config": {}, "config_digest": "x",
                              "trace_length": 1, "seed": 1})
        stop = threading.Event()
        problems = []

        def _writer():
            for index in range(200):
                journal.append_done("gups", "vipt", f"digest-{index}",
                                    {"index": index})
            # simulate a crash mid-append: raw half-record at the tail
            with open(journal_path, "ab") as handle:
                handle.write(b'{"type": "done", "workload": "gu')
            stop.set()

        def _reader():
            while not stop.is_set():
                try:
                    _assert_valid_prefix(journal)
                except AssertionError as exc:
                    problems.append(repr(exc))
                    return

        writer = threading.Thread(target=_writer)
        readers = [threading.Thread(target=_reader) for _ in range(2)]
        writer.start()
        for thread in readers:
            thread.start()
        writer.join(60)
        for thread in readers:
            thread.join(60)
        assert not problems, problems
        # after the "crash", read() still parses the valid prefix and
        # drops only the torn tail
        _header, cells = journal.read()
        assert cells[("gups", "vipt")]["result"] == {"index": 199}

    def test_checksums_survive_canonicalization_under_readers(
            self, tmp_path):
        """rewrite_canonical() is atomic: a reader polling during the
        rewrite sees either the old or the new file, never a mix."""
        journal_path = tmp_path / "canon.jsonl"
        journal = SweepJournal(journal_path, min_free_bytes=None)
        journal.write_header({"workloads": ["gups"],
                              "designs": ["vipt", "seesaw"],
                              "config": {}, "config_digest": "x",
                              "trace_length": 1, "seed": 1})
        # append superseded + out-of-order records to give the rewrite
        # real work
        journal.append_done("gups", "seesaw", "d2", {"pass": 1})
        journal.append_done("gups", "vipt", "d1", {"pass": 1})
        journal.append_done("gups", "seesaw", "d2", {"pass": 2})
        stop = threading.Event()
        problems = []

        def _reader():
            while not stop.is_set():
                try:
                    count = _assert_valid_prefix(journal)
                    assert count >= 1
                except AssertionError as exc:
                    problems.append(repr(exc))
                    return

        readers = [threading.Thread(target=_reader) for _ in range(2)]
        for thread in readers:
            thread.start()
        try:
            for _ in range(20):
                journal.append_done("gups", "vipt", "d1",
                                    {"pass": 3})
                journal.rewrite_canonical()
        finally:
            stop.set()
            for thread in readers:
                thread.join(30)
        assert not problems, problems
        lines = journal_path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r.get("type") for r in records] == \
            ["header", "done", "done"]
        # canonical enumeration order: vipt before seesaw
        assert records[1]["design"] == "vipt"
        assert records[2]["design"] == "seesaw"
