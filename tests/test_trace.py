"""Tests for the memory-trace representation."""

import pytest

from repro.workloads.trace import MemoryTrace, TraceRecord


def make_trace():
    return MemoryTrace("t", [0x1000, 0x2000, 0x1040],
                       [False, True, False],
                       cores=[0, 1, 0], gaps=[2, 3, 4])


class TestConstruction:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MemoryTrace("t", [1, 2], [True])
        with pytest.raises(ValueError):
            MemoryTrace("t", [1], [True], cores=[0, 1])

    def test_defaults(self):
        trace = MemoryTrace("t", [1, 2], [False, True])
        assert trace.cores == [0, 0]
        assert trace.gaps == [2, 2]


class TestProperties:
    def test_len_and_iteration(self):
        trace = make_trace()
        assert len(trace) == 3
        records = list(trace)
        assert records[1] == TraceRecord(0x2000, True, 1, 3)

    def test_instructions_counts_gaps_plus_references(self):
        trace = make_trace()
        assert trace.instructions == 3 + 9

    def test_num_cores(self):
        assert make_trace().num_cores == 2

    def test_write_fraction(self):
        assert make_trace().write_fraction == pytest.approx(1 / 3)

    def test_footprint_pages(self):
        assert make_trace().footprint_pages() == 2   # 0x1000/0x1040 share


class TestSliceAndConcat:
    def test_slice_for_core(self):
        sliced = make_trace().slice_for_core(0)
        assert sliced.addresses == [0x1000, 0x1040]
        assert sliced.cores == [0, 0]
        assert sliced.gaps == [2, 4]

    def test_concatenate(self):
        trace = make_trace()
        joined = MemoryTrace.concatenate("j", [trace, trace])
        assert len(joined) == 6
        assert joined.addresses[3] == 0x1000


class TestDigest:
    def test_memo_follows_the_length(self):
        from repro.resilience.checkpoint import trace_digest

        trace = MemoryTrace("t", list(range(0, 4096, 64)), [False] * 64)
        digest = trace_digest(trace)
        assert trace_digest(trace) == digest
        # Truncated in place, as fault injection's trace-truncate does.
        for column in (trace.addresses, trace.writes, trace.cores,
                       trace.gaps):
            del column[32:]
        fresh = MemoryTrace("t", trace.addresses, trace.writes,
                            trace.cores, trace.gaps)
        assert trace_digest(trace) == trace_digest(fresh) != digest
