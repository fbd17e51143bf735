"""Per-access reference for trace generation, and stream helpers.

The sharing kernels in :mod:`repro.workloads.kernels` emit numpy columns
drawn in bulk. The functions here are the per-access loops they replace:
each kernel appends ``(pc, addr, is_write)`` tuples to per-thread lists,
one scalar RNG call at a time, :func:`interleave_reference` merges such
lists through a :class:`TraceBuilder`, and :func:`statistics_reference`
makes one dictionary pass over a trace. The differential tests assert that
the column code gives exactly what these give.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.addressing import BLOCK_BYTES_DEFAULT
from repro.common.rng import DeterministicRng
from repro.trace.stats import TraceStatistics
from repro.trace.trace import Trace, TraceBuilder
from repro.workloads.kernels import Streams as ColumnStreams
from repro.workloads.layout import Region

Streams = List[List[Tuple[int, int, bool]]]
"""Per-thread access triples ``(pc, addr, is_write)``; index = thread id."""

_B = BLOCK_BYTES_DEFAULT


def as_tuples(streams: ColumnStreams) -> Streams:
    """Column streams as per-thread tuple lists."""
    return [
        list(zip(pcs.tolist(), addrs.tolist(), writes.tolist()))
        for pcs, addrs, writes in streams.columns()
    ]


class ReadableStreams(ColumnStreams):
    """Column streams that read back as per-thread tuple lists."""

    def __getitem__(self, tid: int):
        return as_tuples(self)[tid]

    def __iter__(self):
        return iter(as_tuples(self))


def skewed_index(rng: DeterministicRng, n: int, skew: float) -> int:
    """Sample an index in ``[0, n)`` with tunable skew toward low indices.

    ``skew == 1`` is uniform; larger values concentrate probability mass on
    small indices (a cheap stand-in for Zipf-like popularity without a CDF
    table on the hot path).
    """
    if skew == 1.0:
        return rng.randrange(n)
    return min(n - 1, int(n * (rng.random() ** skew)))


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
    for tid, region in enumerate(thread_regions):
        stream = streams[tid]
        base = region.base_block
        for _pass in range(passes):
            for i in range(0, region.num_blocks, stride_blocks):
                is_write = bool(
                    write_fraction and rng is not None and rng.random() < write_fraction
                )
                stream.append((pc, (base + i) * _B, is_write))


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
        stream = streams[tid]
        thread_rng = rng.spawn("hotset", tid)
        n = region.num_blocks
        base = region.base_block
        for __ in range(accesses_per_thread):
            block = base + skewed_index(thread_rng, n, skew)
            stream.append((pc, block * _B, thread_rng.random() < write_fraction))


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
        stream = streams[tid]
        thread_rng = rng.spawn("ro", tid)
        n = region.num_blocks
        base = region.base_block
        for __ in range(accesses_per_thread):
            block = base + skewed_index(thread_rng, n, skew)
            stream.append((pc, block * _B, False))


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
        stream = streams[tid]
        thread_rng = rng.spawn("rw", tid)
        n = region.num_blocks
        base = region.base_block
        for __ in range(accesses_per_thread):
            block = base + skewed_index(thread_rng, n, skew)
            stream.append((pc, block * _B, thread_rng.random() < write_fraction))


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
    paper's oracle protects.
    """
    num_threads = len(streams)
    for tid, buffer in enumerate(buffers):
        producer = streams[tid]
        for chunk_start in range(0, buffer.num_blocks, chunk_blocks):
            end = min(chunk_start + chunk_blocks, buffer.num_blocks)
            for i in range(chunk_start, end):
                producer.append((pc_produce, buffer.block(i) * _B, True))
    for tid, buffer in enumerate(buffers):
        for hop in range(1, hops + 1):
            consumer = streams[(tid + hop) % num_threads]
            for i in range(buffer.num_blocks):
                consumer.append((pc_consume, buffer.block(i) * _B, False))


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
    for item in range(items):
        slot = rng.randrange(slots)
        first = rng.randrange(num_threads)
        tid = first
        for __ in range(hops):
            stream = streams[tid]
            for rep in range(rmw_repeats):
                for b in range(item_blocks):
                    addr = region.block(slot * item_blocks + b) * _B
                    stream.append((pc, addr, False))
                    stream.append((pc, addr, True))
            next_tid = rng.randrange(num_threads)
            if num_threads > 1 and next_tid == tid:
                next_tid = (tid + 1) % num_threads
            tid = next_tid


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

    def row_addrs(row: int):
        start = row * row_blocks
        return [grid.block(start + b) * _B for b in range(row_blocks)]

    for __ in range(sweeps):
        for tid in range(num_threads):
            stream = streams[tid]
            first_row = tid * rows_per_thread
            last_row = min(total_rows, first_row + rows_per_thread) - 1
            if first_row > last_row:
                continue
            # Halo reads: neighbour rows just outside the band.
            if first_row > 0:
                for addr in row_addrs(first_row - 1):
                    stream.append((pc_halo, addr, False))
            if last_row < total_rows - 1:
                for addr in row_addrs(last_row + 1):
                    stream.append((pc_halo, addr, False))
            # Interior compute: read then write own rows.
            for row in range(first_row, last_row + 1):
                for addr in row_addrs(row):
                    stream.append((pc_compute, addr, False))
                    stream.append((pc_compute, addr, True))


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
    for tid, region in enumerate(partials):
        stream = streams[tid]
        for i in range(region.num_blocks):
            stream.append((pc_write, region.block(i) * _B, True))
    stride = 1
    while stride < num_threads:
        for tid in range(0, num_threads - stride, 2 * stride):
            reader = streams[tid]
            source = partials[tid + stride]
            for i in range(source.num_blocks):
                reader.append((pc_combine, source.block(i) * _B, False))
            mine = partials[tid]
            for i in range(mine.num_blocks):
                reader.append((pc_combine, mine.block(i) * _B, True))
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
        stream = streams[tid]
        thread_rng = rng.spawn("lock", tid)
        for __ in range(rounds_per_thread):
            addr = region.block(thread_rng.randrange(region.num_blocks)) * _B
            stream.append((pc, addr, False))
            stream.append((pc, addr, True))


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
    for task in range(num_tasks):
        tid = rng.randrange(len(streams))
        stream = streams[tid]
        head = queue.block(task % queue.num_blocks) * _B
        stream.append((pc_queue, head, False))
        stream.append((pc_queue, head, True))
        slot = rng.randrange(slots)
        for b in range(task_blocks):
            addr = tasks.block(slot * task_blocks + b) * _B
            stream.append((pc_task, addr, False))
            if rng.random() < task_write_fraction:
                stream.append((pc_task, addr, True))


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
    writer = streams[writer_tid]
    for i in range(region.num_blocks):
        writer.append((pc_write, region.block(i) * _B, True))
    for tid in range(len(streams)):
        if tid == writer_tid:
            continue
        stream = streams[tid]
        for __ in range(reader_passes):
            for i in range(region.num_blocks):
                stream.append((pc_read, region.block(i) * _B, False))


def scatter_reference(streams: Streams, rng: DeterministicRng, dest: Region,
                      pc: int) -> None:
    """The radix/fft scatter: each thread in turn writes
    ``dest.num_blocks // threads`` uniformly drawn blocks of ``dest``."""
    per_thread = dest.num_blocks // len(streams)
    for tid in range(len(streams)):
        stream = streams[tid]
        for __ in range(per_thread):
            block = dest.block(rng.randrange(dest.num_blocks))
            stream.append((pc, block * 64, True))


def interleave_reference(streams: Streams, rng: DeterministicRng,
                         min_burst: int = 8, max_burst: int = 64,
                         name: str = "trace") -> Trace:
    """Merge tuple streams access by access, to the last access."""
    builder = TraceBuilder(name=name)
    cursors = [0] * len(streams)
    live = [tid for tid, stream in enumerate(streams) if len(stream) > 0]
    while live:
        tid = live[rng.randrange(len(live))]
        stream = streams[tid]
        cursor = cursors[tid]
        burst = rng.randint(min_burst, max_burst)
        end = min(cursor + burst, len(stream))
        for pc, addr, is_write in stream[cursor:end]:
            builder.append(tid, pc, addr, is_write)
        cursors[tid] = end
        if end == len(stream):
            live.remove(tid)
    return builder.build()


def statistics_reference(trace: Trace,
                         block_bytes: int = BLOCK_BYTES_DEFAULT
                         ) -> TraceStatistics:
    """One dictionary pass over ``trace``."""
    tids, pcs, addrs, writes = trace.columns()
    num_threads = trace.num_threads
    toucher_mask: Dict[int, int] = {}
    block_accesses: Dict[int, int] = {}
    per_thread = [0] * num_threads
    num_writes = 0
    seen_pcs = set()
    for i in range(len(tids)):
        tid = tids[i]
        block = addrs[i] // block_bytes
        per_thread[tid] += 1
        num_writes += writes[i]
        seen_pcs.add(pcs[i])
        toucher_mask[block] = toucher_mask.get(block, 0) | (1 << tid)
        block_accesses[block] = block_accesses.get(block, 0) + 1
    shared = [block for block, mask in toucher_mask.items()
              if mask & (mask - 1)]
    return TraceStatistics(
        name=trace.name,
        num_accesses=len(trace),
        num_threads=num_threads,
        num_writes=num_writes,
        footprint_blocks=len(toucher_mask),
        shared_blocks=len(shared),
        accesses_to_shared=sum(block_accesses[block] for block in shared),
        per_thread_accesses=tuple(per_thread),
        distinct_pcs=len(seen_pcs),
    )
