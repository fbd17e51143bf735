"""Tests for repro.trace.interleave."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.rng import DeterministicRng
from repro.trace.interleave import interleave_streams
from tests.workloads.kernels_reference import interleave_reference


def thread_stream(tid, count):
    """A recognisable per-thread stream: pc encodes the sequence index."""
    i = np.arange(count)
    return (tid * 10_000 + i, tid * 1_000_000 + i * 64, i % 3 == 0)


class TestInterleaveStreams:
    def test_preserves_every_access(self):
        streams = [thread_stream(0, 100), thread_stream(1, 57), thread_stream(2, 3)]
        trace = interleave_streams(streams, DeterministicRng(1))
        assert len(trace) == 160
        assert trace.num_threads == 3

    def test_preserves_per_thread_order(self):
        streams = [thread_stream(0, 200), thread_stream(1, 200)]
        trace = interleave_streams(streams, DeterministicRng(2))
        for tid in (0, 1):
            pcs = [a.pc for a in trace if a.tid == tid]
            assert pcs == sorted(pcs)
            assert len(pcs) == 200

    def test_actually_interleaves(self):
        streams = [thread_stream(0, 500), thread_stream(1, 500)]
        trace = interleave_streams(streams, DeterministicRng(3))
        tids = [a.tid for a in trace]
        # Not a pure concatenation: both threads appear in the first half.
        assert set(tids[:500]) == {0, 1}

    def test_burst_sizes_respected(self):
        streams = [thread_stream(0, 1000), thread_stream(1, 1000)]
        trace = interleave_streams(
            streams, DeterministicRng(4), min_burst=5, max_burst=10
        )
        # Runs of one thread id should never exceed max_burst (runs can be
        # shorter than min_burst only when a stream is exhausted, and can
        # merge across consecutive turns of the same thread; so only check
        # that turns are bounded by inspecting per-thread order instead).
        runs = []
        current_tid, run = trace[0].tid, 1
        for access in list(trace)[1:]:
            if access.tid == current_tid:
                run += 1
            else:
                runs.append(run)
                current_tid, run = access.tid, 1
        # With two live threads a run merges at most a handful of turns;
        # sanity-bound it loosely.
        assert max(runs) <= 100

    def test_deterministic_for_same_seed(self):
        streams = [thread_stream(0, 300), thread_stream(1, 300)]
        a = interleave_streams(streams, DeterministicRng(7))
        b = interleave_streams(streams, DeterministicRng(7))
        assert list(a) == list(b)

    def test_different_seed_differs(self):
        streams = [thread_stream(0, 300), thread_stream(1, 300)]
        a = interleave_streams(streams, DeterministicRng(7))
        b = interleave_streams(streams, DeterministicRng(8))
        assert list(a) != list(b)

    def test_empty_streams_allowed(self):
        trace = interleave_streams(
            [thread_stream(0, 0), thread_stream(1, 10), thread_stream(2, 0)],
            DeterministicRng(1))
        assert len(trace) == 10
        assert all(a.tid == 1 for a in trace)

    def test_no_streams(self):
        assert len(interleave_streams([], DeterministicRng(1))) == 0

    def test_invalid_burst_range(self):
        with pytest.raises(ValueError):
            interleave_streams([thread_stream(0, 0)], DeterministicRng(1),
                               min_burst=0)
        with pytest.raises(ValueError):
            interleave_streams([thread_stream(0, 0)], DeterministicRng(1),
                               min_burst=8, max_burst=4)

    @settings(max_examples=25)
    @given(
        st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=1 << 30),
    )
    def test_property_complete_and_ordered(self, lengths, seed):
        streams = [thread_stream(tid, n) for tid, n in enumerate(lengths)]
        trace = interleave_streams(streams, DeterministicRng(seed))
        assert len(trace) == sum(lengths)
        for tid, n in enumerate(lengths):
            pcs = [a.pc for a in trace if a.tid == tid]
            assert pcs == [tid * 10_000 + i for i in range(n)]


class TestInterleaveExtremes:
    def test_burst_of_one(self):
        streams = [thread_stream(0, 30), thread_stream(1, 30)]
        trace = interleave_streams(streams, DeterministicRng(9),
                                   min_burst=1, max_burst=1)
        assert len(trace) == 60
        for tid in (0, 1):
            pcs = [a.pc for a in trace if a.tid == tid]
            assert pcs == sorted(pcs)

    def test_burst_larger_than_streams(self):
        streams = [thread_stream(0, 5), thread_stream(1, 5)]
        trace = interleave_streams(streams, DeterministicRng(9),
                                   min_burst=100, max_burst=200)
        # Each thread emitted in one turn; both fully present.
        assert len(trace) == 10

    def test_single_thread(self):
        streams = [thread_stream(0, 50)]
        trace = interleave_streams(streams, DeterministicRng(9))
        assert [a.pc for a in trace] == [i for i in range(50)]


class TestInterleaveMatchesReference:
    @settings(max_examples=40)
    @given(
        lengths=st.lists(st.integers(0, 200), max_size=5),
        seed=st.integers(0, 2**32 - 1),
        bursts=st.tuples(st.integers(1, 20), st.integers(0, 50)),
        limit=st.none() | st.integers(0, 700),
    )
    def test_gather_equals_per_access_merge(self, lengths, seed, bursts,
                                            limit):
        low, high = bursts[0], bursts[0] + bursts[1]
        streams = [thread_stream(tid, n) for tid, n in enumerate(lengths)]
        expected = interleave_reference(
            [list(zip(*(column.tolist() for column in stream)))
             for stream in streams],
            DeterministicRng(seed), low, high, name="t")
        got = interleave_streams(streams, DeterministicRng(seed), low, high,
                                 name="t", limit=limit)
        placed = len(expected) if limit is None else min(limit, len(expected))
        assert len(got) == placed
        for mine, theirs in zip(got.columns(), expected.columns()):
            assert mine.typecode == theirs.typecode
            assert mine == theirs[:placed]
