"""Tests for repro.trace.stats."""

from hypothesis import given, strategies as st

from repro.trace.stats import compute_trace_statistics
from repro.workloads.multiprogram import MultiprogramMix
from tests.conftest import make_trace
from tests.strategies import access_lists
from tests.workloads.kernels_reference import statistics_reference


class TestComputeTraceStatistics:
    def test_empty_trace(self):
        stats = compute_trace_statistics(make_trace([]))
        assert stats.num_accesses == 0
        assert stats.footprint_blocks == 0
        assert stats.shared_block_fraction == 0.0

    def test_counts_and_footprint(self):
        trace = make_trace([
            (0, 0x1, 0, False),      # block 0
            (0, 0x2, 64, True),      # block 1
            (0, 0x3, 65, False),     # block 1 again
        ])
        stats = compute_trace_statistics(trace)
        assert stats.num_accesses == 3
        assert stats.num_writes == 1
        assert stats.footprint_blocks == 2
        assert stats.footprint_bytes == 128
        assert stats.distinct_pcs == 3

    def test_write_fraction(self):
        trace = make_trace([(0, 0, 0, True), (0, 0, 0, False)])
        assert compute_trace_statistics(trace).write_fraction == 0.5

    def test_shared_blocks_require_two_threads(self):
        trace = make_trace([
            (0, 0, 0, False),
            (1, 0, 0, False),     # block 0 shared
            (0, 0, 64, False),    # block 1 private
            (0, 0, 64, False),
        ])
        stats = compute_trace_statistics(trace)
        assert stats.shared_blocks == 1
        assert stats.footprint_blocks == 2
        assert stats.shared_block_fraction == 0.5
        assert stats.accesses_to_shared == 2
        assert stats.shared_access_fraction == 0.5

    def test_per_thread_accesses(self):
        trace = make_trace([
            (0, 0, 0, False), (2, 0, 0, False), (2, 0, 64, False),
        ])
        stats = compute_trace_statistics(trace)
        assert stats.per_thread_accesses == (1, 0, 2)
        assert stats.num_threads == 3

    def test_same_thread_many_accesses_not_shared(self):
        trace = make_trace([(0, 0, 0, False)] * 10)
        stats = compute_trace_statistics(trace)
        assert stats.shared_blocks == 0

    def test_custom_block_size(self):
        trace = make_trace([(0, 0, 0, False), (1, 0, 100, False)])
        # With 128B blocks both addresses fall in block 0 -> shared.
        stats = compute_trace_statistics(trace, block_bytes=128)
        assert stats.footprint_blocks == 1
        assert stats.shared_blocks == 1


class TestMatchesPerAccessReference:
    @given(accesses=access_lists(num_threads=5, max_addr=1 << 14, min_size=0),
           block_bytes=st.sampled_from([1, 64, 4096]))
    def test_random_traces(self, accesses, block_bytes):
        trace = make_trace(accesses)
        assert compute_trace_statistics(trace, block_bytes) == (
            statistics_reference(trace, block_bytes))

    def test_multiprogram_addresses_beyond_32_bits(self):
        trace = MultiprogramMix(["canneal", "water"]).generate(
            num_threads=4, scale=128, target_accesses=6_000, seed=3)
        assert max(trace.addrs) >> 32
        assert compute_trace_statistics(trace) == statistics_reference(trace)
