"""Tests for the sharing kernels (repro.workloads.kernels)."""

import pytest
from hypothesis import given, strategies as st

from repro.common.rng import DeterministicRng
from repro.workloads import kernels
from repro.workloads.base import GeneratorContext
from repro.workloads.layout import Region
from repro.workloads.splash2 import _scatter
from tests.workloads import kernels_reference
from tests.workloads.kernels_reference import ReadableStreams, as_tuples

BLOCK = 64


def empty_streams(num_threads):
    return ReadableStreams(num_threads)


def touched_blocks(stream):
    return {addr // BLOCK for __, addr, __w in stream}


def region_blocks(region):
    return set(range(region.base_block, region.base_block + region.num_blocks))


class TestSkewedIndex:
    def test_uniform_covers_range(self):
        rng = DeterministicRng(1)
        seen = {kernels.skewed_index(rng, 8, 1.0) for __ in range(500)}
        assert seen == set(range(8))

    def test_skew_biases_low_indices(self):
        rng = DeterministicRng(1)
        samples = [kernels.skewed_index(rng, 1000, 4.0) for __ in range(2000)]
        low = sum(1 for s in samples if s < 100)
        assert low > len(samples) * 0.4  # uniform would give ~10%

    def test_bounds(self):
        rng = DeterministicRng(1)
        for skew in (1.0, 2.0, 8.0):
            for __ in range(200):
                assert 0 <= kernels.skewed_index(rng, 7, skew) < 7


class TestPrivateStream:
    def test_each_thread_stays_in_own_region(self):
        streams = empty_streams(2)
        regions = [Region("a", 0, 16), Region("b", 100, 16)]
        kernels.emit_private_stream(streams, regions, pc=0x10)
        assert touched_blocks(streams[0]) == region_blocks(regions[0])
        assert touched_blocks(streams[1]) == region_blocks(regions[1])

    def test_sequential_order(self):
        streams = empty_streams(1)
        kernels.emit_private_stream(streams, [Region("a", 5, 8)], pc=0x10)
        addresses = [addr for __, addr, __w in streams[0]]
        assert addresses == [(5 + i) * BLOCK for i in range(8)]

    def test_passes_and_stride(self):
        streams = empty_streams(1)
        kernels.emit_private_stream(
            streams, [Region("a", 0, 8)], pc=0, passes=2, stride_blocks=2
        )
        assert len(streams[0]) == 8  # 4 per pass x 2 passes

    def test_write_fraction(self):
        streams = empty_streams(1)
        kernels.emit_private_stream(
            streams, [Region("a", 0, 1000)], pc=0,
            write_fraction=0.5, rng=DeterministicRng(3),
        )
        writes = sum(1 for __, __a, w in streams[0] if w)
        assert 300 < writes < 700

    def test_no_writes_without_rng(self):
        streams = empty_streams(1)
        kernels.emit_private_stream(streams, [Region("a", 0, 16)], pc=0)
        assert not any(w for __, __a, w in streams[0])


class TestPrivateHotset:
    def test_count_and_region_confinement(self):
        streams = empty_streams(2)
        regions = [Region("a", 0, 8), Region("b", 50, 8)]
        kernels.emit_private_hotset(
            streams, DeterministicRng(1), regions, pc=0, accesses_per_thread=100
        )
        for tid in (0, 1):
            assert len(streams[tid]) == 100
            assert touched_blocks(streams[tid]) <= region_blocks(regions[tid])


class TestSharedReadonly:
    def test_all_threads_read_shared_region(self):
        streams = empty_streams(3)
        region = Region("table", 0, 32)
        kernels.emit_shared_readonly(
            streams, DeterministicRng(1), region, pc=0, accesses_per_thread=50
        )
        for stream in streams:
            assert len(stream) == 50
            assert touched_blocks(stream) <= region_blocks(region)
            assert not any(w for __, __a, w in stream)

    def test_thread_subset(self):
        streams = empty_streams(4)
        kernels.emit_shared_readonly(
            streams, DeterministicRng(1), Region("t", 0, 8), pc=0,
            accesses_per_thread=10, threads=[1, 3],
        )
        assert [len(s) for s in streams] == [0, 10, 0, 10]


class TestSharedRwRandom:
    def test_mixes_reads_and_writes(self):
        streams = empty_streams(2)
        kernels.emit_shared_rw_random(
            streams, DeterministicRng(1), Region("g", 0, 64), pc=0,
            accesses_per_thread=200, write_fraction=0.5,
        )
        for stream in streams:
            writes = sum(1 for __, __a, w in stream if w)
            assert 0 < writes < 200


class TestProducerConsumer:
    def test_producer_writes_consumer_reads(self):
        streams = empty_streams(2)
        buffers = [Region("b0", 0, 8), Region("b1", 100, 8)]
        kernels.emit_producer_consumer(streams, buffers, 0x10, 0x20)
        # Thread 0 writes buffer 0 and reads buffer 1 (hop from thread 1).
        writes0 = [(a, w) for pc, a, w in streams[0] if pc == 0x10]
        reads0 = [(a, w) for pc, a, w in streams[0] if pc == 0x20]
        assert all(w for __, w in writes0)
        assert all(not w for __, w in reads0)
        assert {a // BLOCK for a, __ in writes0} == region_blocks(buffers[0])
        assert {a // BLOCK for a, __ in reads0} == region_blocks(buffers[1])

    def test_writes_precede_reads_per_thread(self):
        streams = empty_streams(2)
        buffers = [Region("b0", 0, 4), Region("b1", 50, 4)]
        kernels.emit_producer_consumer(streams, buffers, 1, 2)
        pcs = [pc for pc, __a, __w in streams[0]]
        assert pcs.index(2) > pcs.index(1)

    def test_multi_hop(self):
        streams = empty_streams(3)
        buffers = [Region(f"b{i}", i * 100, 4) for i in range(3)]
        kernels.emit_producer_consumer(streams, buffers, 1, 2, hops=2)
        # With hops=2 each buffer is read by two downstream threads.
        reads_of_b0 = sum(
            1 for stream in streams for pc, a, w in stream
            if pc == 2 and a // BLOCK in region_blocks(buffers[0])
        )
        assert reads_of_b0 == 2 * buffers[0].num_blocks


class TestMigratory:
    def test_items_visit_multiple_threads(self):
        streams = empty_streams(4)
        kernels.emit_migratory(
            streams, DeterministicRng(5), Region("m", 0, 64), pc=0,
            items=20, hops=3,
        )
        active = [tid for tid, s in enumerate(streams) if s]
        assert len(active) >= 2

    def test_rmw_pattern(self):
        streams = empty_streams(2)
        kernels.emit_migratory(
            streams, DeterministicRng(5), Region("m", 0, 8), pc=0,
            items=1, item_blocks=1, hops=1, rmw_repeats=1,
        )
        stream = next(s for s in streams if s)
        assert [w for __, __a, w in stream] == [False, True]


class TestHaloExchange:
    def test_compute_touches_own_band_only(self):
        streams = empty_streams(2)
        grid = Region("g", 0, 16)  # 8 rows of 2 blocks, 4 rows per thread
        kernels.emit_halo_exchange(streams, grid, row_blocks=2,
                                   pc_compute=1, pc_halo=2)
        compute0 = {a // BLOCK for pc, a, __ in streams[0] if pc == 1}
        compute1 = {a // BLOCK for pc, a, __ in streams[1] if pc == 1}
        assert compute0 == set(range(0, 8))
        assert compute1 == set(range(8, 16))

    def test_halo_reads_cross_band_boundary(self):
        streams = empty_streams(2)
        grid = Region("g", 0, 16)
        kernels.emit_halo_exchange(streams, grid, row_blocks=2,
                                   pc_compute=1, pc_halo=2)
        halo0 = {a // BLOCK for pc, a, __ in streams[0] if pc == 2}
        halo1 = {a // BLOCK for pc, a, __ in streams[1] if pc == 2}
        assert halo0 == {8, 9}    # thread 0 reads thread 1's first row
        assert halo1 == {6, 7}    # thread 1 reads thread 0's last row

    def test_halo_accesses_are_reads(self):
        streams = empty_streams(2)
        kernels.emit_halo_exchange(streams, Region("g", 0, 16), 2, 1, 2)
        for stream in streams:
            assert not any(w for pc, __a, w in stream if pc == 2)

    def test_interior_read_write_pairs(self):
        streams = empty_streams(1)
        kernels.emit_halo_exchange(streams, Region("g", 0, 4), 2, 1, 2)
        flags = [w for pc, __a, w in streams[0] if pc == 1]
        assert flags == [False, True] * 4


class TestReduction:
    def test_partials_written_then_combined(self):
        streams = empty_streams(4)
        partials = [Region(f"p{i}", i * 10, 2) for i in range(4)]
        kernels.emit_reduction(streams, partials, pc_write=1, pc_combine=2)
        # Every thread writes its own partial region.
        for tid in range(4):
            writes = {a // BLOCK for pc, a, w in streams[tid] if pc == 1}
            assert writes == region_blocks(partials[tid])
        # Thread 0 eventually reads thread 1's and thread 2's partials.
        reads0 = {a // BLOCK for pc, a, w in streams[0] if pc == 2 and not w}
        assert region_blocks(partials[1]) <= reads0
        assert region_blocks(partials[2]) <= reads0

    def test_single_thread_reduction_has_no_combines(self):
        streams = empty_streams(1)
        kernels.emit_reduction(streams, [Region("p", 0, 2)], 1, 2)
        assert all(pc == 1 for pc, __a, __w in streams[0])


class TestLockHotspot:
    def test_all_threads_rmw_lock_region(self):
        streams = empty_streams(3)
        region = Region("locks", 0, 2)
        kernels.emit_lock_hotspot(
            streams, DeterministicRng(1), region, pc=9, rounds_per_thread=10
        )
        for stream in streams:
            assert len(stream) == 20  # read+write per round
            assert touched_blocks(stream) <= region_blocks(region)
            flags = [w for __, __a, w in stream]
            assert flags == [False, True] * 10


class TestTaskQueue:
    def test_queue_and_task_traffic(self):
        streams = empty_streams(2)
        queue, tasks = Region("q", 0, 2), Region("t", 100, 32)
        kernels.emit_task_queue(
            streams, DeterministicRng(1), queue, tasks,
            pc_queue=1, pc_task=2, num_tasks=40, task_blocks=4,
        )
        all_accesses = streams[0] + streams[1]
        queue_accesses = [a for pc, a, w in all_accesses if pc == 1]
        task_accesses = [a for pc, a, w in all_accesses if pc == 2]
        assert len(queue_accesses) == 80  # RMW per task
        assert {a // BLOCK for a in queue_accesses} <= region_blocks(queue)
        assert {a // BLOCK for a in task_accesses} <= region_blocks(tasks)


class TestBroadcast:
    def test_writer_then_readers(self):
        streams = empty_streams(3)
        region = Region("frame", 0, 8)
        kernels.emit_broadcast(streams, region, writer_tid=1,
                               pc_write=1, pc_read=2)
        assert all(w for __, __a, w in streams[1])
        assert len(streams[1]) == 8
        for tid in (0, 2):
            assert len(streams[tid]) == 8
            assert not any(w for __, __a, w in streams[tid])

    def test_reader_passes(self):
        streams = empty_streams(2)
        kernels.emit_broadcast(streams, Region("f", 0, 4), 0, 1, 2,
                               reader_passes=3)
        assert len(streams[1]) == 12


# Regions of 1-4 blocks, powers of two (where randrange rejects the most
# outputs) and anything in between.
sizes = st.one_of(st.integers(1, 4), st.sampled_from([8, 64, 256, 1024]),
                  st.integers(1, 300))
skews = st.one_of(st.just(1.0), st.floats(1.0, 3.0))
write_fractions = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
seeds = st.integers(0, 2**32 - 1)
threads = st.integers(1, 4)


def regions(block_counts):
    """Disjoint regions of the given sizes."""
    return [Region(f"r{i}", 0x1000 + 0x1000 * i, n)
            for i, n in enumerate(block_counts)]


def check(name, num_threads, call):
    """``call(kernel, streams)`` gives the same accesses through the column
    kernel ``name`` and through its per-access reference."""
    columns = kernels.Streams(num_threads)
    call(getattr(kernels, name), columns)
    tuples = [[] for __ in range(num_threads)]
    call(getattr(kernels_reference, name), tuples)
    assert as_tuples(columns) == tuples
    assert columns.total == sum(len(stream) for stream in tuples)


class TestColumnsMatchReference:
    """Each column kernel emits exactly the per-access loop's tuples."""

    @given(block_counts=st.lists(sizes, min_size=1, max_size=4),
           passes=st.integers(0, 3), stride=st.integers(1, 3),
           write_fraction=write_fractions, seed=st.none() | seeds)
    def test_private_stream(self, block_counts, passes, stride,
                            write_fraction, seed):
        check("emit_private_stream", len(block_counts),
              lambda emit, streams: emit(
                  streams, regions(block_counts), 0x40, passes=passes,
                  stride_blocks=stride, write_fraction=write_fraction,
                  rng=None if seed is None else DeterministicRng(seed)))

    @given(block_counts=st.lists(sizes, min_size=1, max_size=4),
           accesses=st.integers(0, 300), write_fraction=write_fractions,
           skew=skews, seed=seeds)
    def test_private_hotset(self, block_counts, accesses, write_fraction,
                            skew, seed):
        check("emit_private_hotset", len(block_counts),
              lambda emit, streams: emit(
                  streams, DeterministicRng(seed), regions(block_counts), 0x40,
                  accesses, write_fraction=write_fraction, skew=skew))

    @given(num_threads=threads, size=sizes, accesses=st.integers(0, 300),
           skew=skews, seed=seeds, subset=st.booleans())
    def test_shared_readonly(self, num_threads, size, accesses, skew, seed,
                             subset):
        check("emit_shared_readonly", num_threads,
              lambda emit, streams: emit(
                  streams, DeterministicRng(seed), regions([size])[0], 0x40,
                  accesses, skew=skew,
                  threads=range(0, num_threads, 2) if subset else None))

    @given(num_threads=threads, size=sizes, accesses=st.integers(0, 300),
           write_fraction=write_fractions, skew=skews, seed=seeds)
    def test_shared_rw_random(self, num_threads, size, accesses,
                              write_fraction, skew, seed):
        check("emit_shared_rw_random", num_threads,
              lambda emit, streams: emit(
                  streams, DeterministicRng(seed), regions([size])[0], 0x40,
                  accesses, write_fraction=write_fraction, skew=skew))

    @given(block_counts=st.lists(sizes, min_size=1, max_size=4),
           chunk=st.integers(1, 16), hops=st.integers(1, 3))
    def test_producer_consumer(self, block_counts, chunk, hops):
        check("emit_producer_consumer", len(block_counts),
              lambda emit, streams: emit(
                  streams, regions(block_counts), 0x40, 0x80,
                  chunk_blocks=chunk, hops=hops))

    @given(num_threads=threads, size=sizes, items=st.integers(0, 40),
           item_blocks=st.integers(1, 4), hops=st.integers(1, 4),
           repeats=st.integers(1, 3), seed=seeds)
    def test_migratory(self, num_threads, size, items, item_blocks, hops,
                       repeats, seed):
        check("emit_migratory", num_threads,
              lambda emit, streams: emit(
                  streams, DeterministicRng(seed), regions([size])[0], 0x40,
                  items, item_blocks=item_blocks, hops=hops,
                  rmw_repeats=repeats))

    @given(num_threads=threads, size=sizes, row_blocks=st.integers(1, 8),
           sweeps=st.integers(0, 2))
    def test_halo_exchange(self, num_threads, size, row_blocks, sweeps):
        check("emit_halo_exchange", num_threads,
              lambda emit, streams: emit(
                  streams, regions([size])[0], row_blocks, 0x40, 0x80,
                  sweeps=sweeps))

    @given(block_counts=st.lists(sizes, min_size=1, max_size=4))
    def test_reduction(self, block_counts):
        check("emit_reduction", len(block_counts),
              lambda emit, streams: emit(
                  streams, regions(block_counts), 0x40, 0x80))

    @given(num_threads=threads, size=sizes, rounds=st.integers(0, 300),
           seed=seeds)
    def test_lock_hotspot(self, num_threads, size, rounds, seed):
        check("emit_lock_hotspot", num_threads,
              lambda emit, streams: emit(
                  streams, DeterministicRng(seed), regions([size])[0], 0x40,
                  rounds))

    @given(num_threads=threads, queue=sizes, tasks=sizes,
           num_tasks=st.integers(0, 60), task_blocks=st.integers(1, 8),
           write_fraction=write_fractions, seed=seeds)
    def test_task_queue(self, num_threads, queue, tasks, num_tasks,
                        task_blocks, write_fraction, seed):
        check("emit_task_queue", num_threads,
              lambda emit, streams: emit(
                  streams, DeterministicRng(seed), *regions([queue, tasks]),
                  0x40, 0x80, num_tasks, task_blocks=task_blocks,
                  task_write_fraction=write_fraction))

    @given(num_threads=threads, size=sizes, writer=st.integers(0, 3),
           passes=st.integers(0, 3))
    def test_broadcast(self, num_threads, size, writer, passes):
        check("emit_broadcast", num_threads,
              lambda emit, streams: emit(
                  streams, regions([size])[0], writer % num_threads, 0x40,
                  0x80, reader_passes=passes))

    @given(num_threads=threads, size=sizes, seed=seeds)
    def test_scatter(self, num_threads, size, seed):
        dest = regions([size])[0]
        ctx = GeneratorContext(num_threads=num_threads, scale=1, seed=0)
        _scatter(ctx, DeterministicRng(seed), dest, 0x40)
        tuples = [[] for __ in range(num_threads)]
        kernels_reference.scatter_reference(
            tuples, DeterministicRng(seed), dest, 0x40)
        assert as_tuples(ctx.streams) == tuples
