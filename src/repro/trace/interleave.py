"""Interleaving of per-thread access streams into one global trace.

Workload models generate each thread's access sequence independently; the
interleaver merges them into a single global order the shared LLC observes.
Round-robin with randomised burst lengths models the loose lock-step of
data-parallel phases (threads make progress at similar rates but interleave
at a granularity of tens of accesses, not single instructions), which is the
regime the paper's CMP traces exhibit.
"""

from array import array
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.common.rng import DeterministicRng
from repro.trace.trace import Trace, TraceBuilder, extend_column

ThreadStream = Tuple[np.ndarray, np.ndarray, np.ndarray]
"""One thread's accesses as ``(pcs, addrs, writes)`` columns."""


def interleave_streams(
    streams: Sequence[ThreadStream],
    rng: DeterministicRng,
    min_burst: int = 8,
    max_burst: int = 64,
    name: str = "trace",
    limit: Optional[int] = None,
) -> Trace:
    """Merge per-thread streams into a globally ordered trace.

    Threads take turns in random order; each turn consumes a random burst of
    ``min_burst..max_burst`` accesses from the chosen thread. Every access of
    every stream appears exactly once, in per-thread order.

    Only the burst plan is drawn turn by turn; each of the trace's columns
    is then filled with one gather.

    Args:
        streams: one ``(pcs, addrs, writes)`` column triple per thread; the
            list index is the thread id.
        rng: deterministic RNG controlling turn order and burst lengths.
        min_burst: minimum accesses consumed per turn.
        max_burst: maximum accesses consumed per turn.
        name: name of the produced trace.
        limit: stop once this many accesses are placed; the trace is the
            first ``limit`` accesses of the full merge.
    """
    if min_burst <= 0 or max_burst < min_burst:
        raise ValueError(f"bad burst range [{min_burst}, {max_burst}]")

    if not streams:
        return TraceBuilder(name=name).build()
    lengths = [len(addrs) for __, addrs, ___ in streams]
    total = sum(lengths)
    limit = total if limit is None else min(limit, total)
    offsets = np.cumsum([0] + lengths[:-1]).tolist()
    cursors = [0] * len(streams)
    live = [tid for tid, length in enumerate(lengths) if length > 0]
    turn_tids, turn_starts, turn_sizes = [], [], []
    placed = 0
    while live and placed < limit:
        tid = live[rng.randrange(len(live))]
        cursor = cursors[tid]
        end = min(cursor + rng.randint(min_burst, max_burst), lengths[tid])
        turn_tids.append(tid)
        turn_starts.append(offsets[tid] + cursor)
        turn_sizes.append(end - cursor)
        placed += end - cursor
        cursors[tid] = end
        if end == lengths[tid]:
            live.remove(tid)

    # Access j of turn t is flat access turn_starts[t] + j, where the flat
    # columns hold thread 0's stream, then thread 1's, and so on.
    sizes = np.array(turn_sizes, dtype=np.int64)
    shift = np.array(turn_starts, dtype=np.int64) - (np.cumsum(sizes) - sizes)
    index = (np.repeat(shift, sizes) + np.arange(placed))[:limit]
    tids = np.repeat(np.array(turn_tids, dtype=np.int16), sizes)[:limit]
    columns = [extend_column(array("h"), tids)]
    for c, typecode in enumerate("qqb"):
        flat = np.concatenate([stream[c] for stream in streams])
        columns.append(extend_column(array(typecode), flat.take(index)))
    return Trace(*columns, name=name)
