"""Reusable sharing kernels.

Each kernel emits one phase-iteration of accesses into per-thread streams
(:class:`Streams`: chunks of numpy ``pc``, ``addr`` and ``is_write``
columns, later interleaved by ``repro.trace.interleave``). Application
models compose kernels with app-specific regions, PCs and weights.

The kernels draw in bulk. A kernel whose draws take a fixed number of
generator outputs each (``random()`` values) draws them all with one call
(:func:`repro.common.rng.bulk_random`); a ``randrange`` column comes from
filtered outputs (:func:`repro.common.rng.bulk_randrange`), which
over-draws its generator, so it is only used on a generator the kernel
spawned for that column. ``migratory``, ``task_queue`` and the index/write
pairs at ``skew == 1.0`` interleave ``randrange`` with other draws, so
they keep one scalar loop and still emit columns. Every column equals
what the per-access loops give (``tests/workloads/kernels_reference.py``
keeps them as the reference).

The kernel set covers the sharing idioms of the paper's three suites:

==================  =============================================
Kernel              Idiom it models
==================  =============================================
private_stream      data-parallel streaming over a private range
private_hotset      per-thread working set with high reuse
shared_readonly     read-only table/tree consulted by all threads
shared_rw_random    large RW-shared structure, random access
producer_consumer   pipeline stages handing buffers downstream
migratory           lock-protected records bouncing across threads
halo_exchange       stencil grids with boundary-row sharing
reduction           per-thread partials combined by a tree
lock_hotspot        contended locks / global counters
task_queue          central work queue plus task payloads
broadcast           one writer, many readers (master/worker)
==================  =============================================
"""

from typing import List, Optional, Sequence

import numpy as np

from repro.common.addressing import BLOCK_BYTES_DEFAULT
from repro.common.rng import DeterministicRng, bulk_random, bulk_randrange
from repro.trace.interleave import ThreadStream
from repro.workloads.layout import Region

_B = BLOCK_BYTES_DEFAULT


class Streams:
    """Per-thread access streams, accumulated as chunks of columns.

    A chunk is ``(pc, addrs, writes)``: ``addrs`` an int64 array of byte
    addresses, and ``pc`` and ``writes`` either arrays of the same length
    or one value for the whole chunk. ``len(streams)`` is the thread count.
    """

    def __init__(self, num_threads: int):
        self._chunks: List[list] = [[] for __ in range(num_threads)]
        self.total = 0
        """Accesses emitted so far across all threads."""

    def __len__(self) -> int:
        return len(self._chunks)

    def emit(self, tid: int, pc, addrs: np.ndarray, writes) -> None:
        """Append the accesses ``addrs`` to thread ``tid``'s stream."""
        if len(addrs):
            self._chunks[tid].append((pc, addrs, writes))
            self.total += len(addrs)

    def columns(self) -> List[ThreadStream]:
        """Each thread's ``(pcs, addrs, writes)`` columns.

        Joins each thread's chunks into one, which the streams keep in
        place of the chunks.
        """
        out = []
        for chunks in self._chunks:
            sizes = [len(addrs) for __, addrs, ___ in chunks]
            joined = tuple(
                _join([chunk[c] for chunk in chunks], sizes, dtype)
                for c, dtype in enumerate((np.int64, np.int64, np.bool_))
            )
            chunks[:] = [joined]
            out.append(joined)
        return out


def _join(parts, sizes, dtype) -> np.ndarray:
    """Concatenate chunk columns, broadcasting one-value chunks."""
    if not parts:
        return np.empty(0, dtype=dtype)
    return np.concatenate([
        np.broadcast_to(np.asarray(part, dtype=dtype), size)
        for part, size in zip(parts, sizes)
    ])


def skewed_index(rng: DeterministicRng, n: int, skew: float) -> int:
    """Sample an index in ``[0, n)`` with tunable skew toward low indices.

    ``skew == 1`` is uniform; larger values concentrate probability mass on
    small indices (a cheap stand-in for Zipf-like popularity without a CDF
    table on the hot path).
    """
    if skew == 1.0:
        return rng.randrange(n)
    return min(n - 1, int(n * (rng.random() ** skew)))


def _skew(uniform: np.ndarray, n: int, skew: float) -> np.ndarray:
    """:func:`skewed_index` of each ``random()`` value (``skew != 1``).

    The power stays Python float ``**`` per value: a vectorized ``pow``
    may differ from it in the last ulp.
    """
    powered = np.array([u ** skew for u in uniform.tolist()],
                       dtype=np.float64)
    return np.minimum(n - 1, (n * powered).astype(np.int64))


def _skewed_indices(rng: DeterministicRng, n: int, skew: float,
                    k: int) -> np.ndarray:
    """``k`` successive :func:`skewed_index` draws (over-draws ``rng``)."""
    if skew == 1.0:
        return bulk_randrange(rng, n, k)
    return _skew(bulk_random(rng, k), n, skew)


def _skewed_pairs(rng: DeterministicRng, n: int, skew: float, k: int,
                  write_fraction: float):
    """``k`` draws of ``skewed_index`` then ``random() < write_fraction``.

    At ``skew == 1`` the index takes a variable number of generator
    outputs, so the pairs are drawn one by one.
    """
    if skew == 1.0:
        randrange, random = rng.randrange, rng.random
        index, uniform = [], []
        for __ in range(k):
            index.append(randrange(n))
            uniform.append(random())
        return (np.array(index, dtype=np.int64),
                np.array(uniform, dtype=np.float64) < write_fraction)
    uniform = bulk_random(rng, 2 * k)
    return _skew(uniform[0::2], n, skew), uniform[1::2] < write_fraction


def _span(region: Region) -> np.ndarray:
    """Byte addresses of every block of ``region``, in order."""
    return region.block(np.arange(region.num_blocks)) * _B


def _read_write(count: int) -> np.ndarray:
    """``count`` read-then-write pairs' is-write flags."""
    return np.tile(np.array([False, True]), count)


def emit_private_stream(
    streams: Streams,
    thread_regions: Sequence[Region],
    pc: int,
    passes: int = 1,
    stride_blocks: int = 1,
    write_fraction: float = 0.0,
    rng: Optional[DeterministicRng] = None,
) -> None:
    """Each thread streams sequentially over its own region.

    Models the per-element loops of data-parallel apps (blackscholes option
    array, x264 current frame). ``write_fraction`` of the touches are stores
    (needs ``rng`` when non-zero).
    """
    draw = bool(write_fraction) and rng is not None
    for tid, region in enumerate(thread_regions):
        index = np.arange(0, region.num_blocks, stride_blocks)
        addrs = np.tile((region.base_block + index) * _B, passes)
        writes = False
        if draw:
            writes = bulk_random(rng, len(addrs)) < write_fraction
        streams.emit(tid, pc, addrs, writes)


def emit_private_hotset(
    streams: Streams,
    rng: DeterministicRng,
    thread_regions: Sequence[Region],
    pc: int,
    accesses_per_thread: int,
    write_fraction: float = 0.2,
    skew: float = 2.0,
) -> None:
    """Each thread hammers random blocks of its own small region.

    Models per-thread scratch data with high temporal locality (swaptions
    Monte-Carlo state, dedup chunk buffers).
    """
    for tid, region in enumerate(thread_regions):
        index, writes = _skewed_pairs(
            rng.spawn("hotset", tid), region.num_blocks, skew,
            accesses_per_thread, write_fraction)
        streams.emit(tid, pc, (region.base_block + index) * _B, writes)


def emit_shared_readonly(
    streams: Streams,
    rng: DeterministicRng,
    region: Region,
    pc: int,
    accesses_per_thread: int,
    skew: float = 1.5,
    threads: Optional[Sequence[int]] = None,
) -> None:
    """All (or the given) threads read random blocks of one shared region.

    Models read-only shared structures: streamcluster's point set, barnes'
    octree, bodytrack's body model.
    """
    for tid in threads if threads is not None else range(len(streams)):
        index = _skewed_indices(
            rng.spawn("ro", tid), region.num_blocks, skew, accesses_per_thread)
        streams.emit(tid, pc, (region.base_block + index) * _B, False)


def emit_shared_rw_random(
    streams: Streams,
    rng: DeterministicRng,
    region: Region,
    pc: int,
    accesses_per_thread: int,
    write_fraction: float = 0.1,
    skew: float = 1.0,
) -> None:
    """All threads randomly read/write one large shared region.

    Models canneal's netlist graph and dedup's global hash table: capacity-
    stressing, low-locality, read-write shared access.
    """
    for tid in range(len(streams)):
        index, writes = _skewed_pairs(
            rng.spawn("rw", tid), region.num_blocks, skew,
            accesses_per_thread, write_fraction)
        streams.emit(tid, pc, (region.base_block + index) * _B, writes)


def emit_producer_consumer(
    streams: Streams,
    buffers: Sequence[Region],
    pc_produce: int,
    pc_consume: int,
    chunk_blocks: int = 8,
    hops: int = 1,
) -> None:
    """Pipeline hand-off: thread ``t`` fills buffer ``t``; thread
    ``(t + hop) % n`` drains it, for ``hop`` in ``1..hops``.

    Models dedup/ferret pipeline stages and x264 slice dependences. Producer
    writes appear in the producer's stream before the consumer's reads, and
    the interleaver preserves per-thread order, so consumers observe
    recently produced (LLC-resident) data — the constructive sharing the
    paper's oracle protects. The producer fills its buffer in block order
    whatever ``chunk_blocks`` is.
    """
    num_threads = len(streams)
    spans = [_span(buffer) for buffer in buffers]
    for tid, span in enumerate(spans):
        streams.emit(tid, pc_produce, span, True)
    for tid, span in enumerate(spans):
        for hop in range(1, hops + 1):
            streams.emit((tid + hop) % num_threads, pc_consume, span, False)


def emit_migratory(
    streams: Streams,
    rng: DeterministicRng,
    region: Region,
    pc: int,
    items: int,
    item_blocks: int = 2,
    hops: int = 3,
    rmw_repeats: int = 2,
) -> None:
    """Records visited read-modify-write by a random chain of threads.

    Models lock-protected shared records (water molecule updates,
    fluidanimate particles crossing cell ownership). Each hop reads then
    writes every block of the item, so successive owners' private copies are
    invalidated and the traffic lands at the LLC.
    """
    num_threads = len(streams)
    slots = max(1, region.num_blocks // item_blocks)
    randrange = rng.randrange
    visits = [[] for __ in range(num_threads)]
    for __ in range(items):
        slot = randrange(slots)
        tid = randrange(num_threads)
        for ___ in range(hops):
            visits[tid].append(slot)
            next_tid = randrange(num_threads)
            if num_threads > 1 and next_tid == tid:
                next_tid = (tid + 1) % num_threads
            tid = next_tid
    # A visit reads then writes each block of its item, rmw_repeats times.
    offsets = np.tile(np.arange(item_blocks), rmw_repeats)
    for tid, slots_visited in enumerate(visits):
        index = np.array(slots_visited, dtype=np.int64)[:, None] * item_blocks
        addrs = np.repeat(region.block(index + offsets).ravel() * _B, 2)
        streams.emit(tid, pc, addrs, _read_write(len(addrs) // 2))


def emit_halo_exchange(
    streams: Streams,
    grid: Region,
    row_blocks: int,
    pc_compute: int,
    pc_halo: int,
    sweeps: int = 1,
) -> None:
    """One stencil sweep over a row-partitioned grid.

    The grid is split into contiguous bands of rows, one band per thread.
    Each sweep a thread reads and writes its own rows (private traffic) and
    reads the rows adjacent to its band boundaries, owned by its neighbours
    (pair-shared traffic). Models ocean, swim, equake and the grid phase of
    fluidanimate. Note the compute PC touches only private data while the
    halo PC touches only shared data — stencil codes are the *favourable*
    case for PC-indexed sharing predictors, which the models deliberately
    mix with ambiguous-PC kernels elsewhere.
    """
    num_threads = len(streams)
    total_rows = grid.num_blocks // row_blocks
    rows_per_thread = max(1, total_rows // num_threads)

    def rows(first: int, last: int) -> np.ndarray:
        """Byte addresses of rows ``first..last``, in order."""
        return grid.block(
            np.arange(first * row_blocks, (last + 1) * row_blocks)) * _B

    for __ in range(sweeps):
        for tid in range(num_threads):
            first_row = tid * rows_per_thread
            last_row = min(total_rows, first_row + rows_per_thread) - 1
            if first_row > last_row:
                continue
            # Halo reads: neighbour rows just outside the band.
            if first_row > 0:
                streams.emit(tid, pc_halo, rows(first_row - 1, first_row - 1),
                             False)
            if last_row < total_rows - 1:
                streams.emit(tid, pc_halo, rows(last_row + 1, last_row + 1),
                             False)
            # Interior compute: read then write own rows.
            own = rows(first_row, last_row)
            streams.emit(tid, pc_compute, np.repeat(own, 2),
                         _read_write(len(own)))


def emit_reduction(
    streams: Streams,
    partials: Sequence[Region],
    pc_write: int,
    pc_combine: int,
) -> None:
    """Tree reduction over per-thread partial-result arrays.

    Each thread writes its own partial region, then a binary combining tree
    has thread ``t`` read the partials of thread ``t + stride`` for doubling
    strides — producer-consumer sharing with a deterministic pairing.
    """
    num_threads = len(streams)
    spans = [_span(region) for region in partials]
    for tid, span in enumerate(spans):
        streams.emit(tid, pc_write, span, True)
    stride = 1
    while stride < num_threads:
        for tid in range(0, num_threads - stride, 2 * stride):
            streams.emit(tid, pc_combine, spans[tid + stride], False)
            streams.emit(tid, pc_combine, spans[tid], True)
        stride *= 2


def emit_lock_hotspot(
    streams: Streams,
    rng: DeterministicRng,
    region: Region,
    pc: int,
    rounds_per_thread: int,
) -> None:
    """All threads repeatedly read-modify-write a few hot blocks.

    Models contended locks and global counters: the highest-degree,
    highest-frequency sharing in the models.
    """
    for tid in range(len(streams)):
        index = bulk_randrange(
            rng.spawn("lock", tid), region.num_blocks, rounds_per_thread)
        streams.emit(tid, pc, np.repeat(region.block(index) * _B, 2),
                     _read_write(rounds_per_thread))


def emit_task_queue(
    streams: Streams,
    rng: DeterministicRng,
    queue: Region,
    tasks: Region,
    pc_queue: int,
    pc_task: int,
    num_tasks: int,
    task_blocks: int = 4,
    task_write_fraction: float = 0.3,
) -> None:
    """Central work queue: dequeue (RMW on queue blocks) then process a task.

    Task payloads live in ``tasks`` and each is processed by a random thread,
    so over time payload blocks are touched by multiple threads (loose
    migratory sharing); the queue head blocks are hammered by everyone.
    Models bodytrack's and radiosity's dynamic load balancing.
    """
    slots = max(1, tasks.num_blocks // task_blocks)
    randrange, random = rng.randrange, rng.random
    columns = [[[], [], []] for __ in range(len(streams))]
    for task in range(num_tasks):
        pcs, addrs, writes = columns[randrange(len(streams))]
        head = queue.block(task % queue.num_blocks) * _B
        pcs.append(pc_queue)
        pcs.append(pc_queue)
        addrs.append(head)
        addrs.append(head)
        writes.append(False)
        writes.append(True)
        slot = randrange(slots)
        for b in range(task_blocks):
            addr = tasks.block(slot * task_blocks + b) * _B
            pcs.append(pc_task)
            addrs.append(addr)
            writes.append(False)
            if random() < task_write_fraction:
                pcs.append(pc_task)
                addrs.append(addr)
                writes.append(True)
    for tid, (pcs, addrs, writes) in enumerate(columns):
        streams.emit(tid, np.array(pcs, dtype=np.int64),
                     np.array(addrs, dtype=np.int64),
                     np.array(writes, dtype=np.bool_))


def emit_broadcast(
    streams: Streams,
    region: Region,
    writer_tid: int,
    pc_write: int,
    pc_read: int,
    reader_passes: int = 1,
) -> None:
    """One thread writes a region; every other thread then reads it.

    Models master-prepared data consumed by workers (x264 reference frames,
    bodytrack per-frame observations).
    """
    span = _span(region)
    streams.emit(writer_tid, pc_write, span, True)
    reads = np.tile(span, reader_passes)
    for tid in range(len(streams)):
        if tid != writer_tid:
            streams.emit(tid, pc_read, reads, False)
