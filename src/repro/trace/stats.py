"""Whole-trace statistics (pre-simulation characterization).

These are properties of the raw access stream, independent of any cache:
footprint, read/write mix, per-thread balance, and the *static* sharing
profile — which blocks are ever touched by more than one thread. The
cache-dependent (per-residency) sharing analysis lives in
``repro.characterization``.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.common.addressing import BLOCK_BYTES_DEFAULT
from repro.common.stats import ratio
from repro.trace.trace import Trace


@dataclass(frozen=True)
class TraceStatistics:
    """Summary statistics of one trace.

    Attributes:
        name: trace name.
        num_accesses: total accesses.
        num_threads: number of threads.
        num_writes: store count.
        footprint_blocks: distinct blocks touched.
        shared_blocks: distinct blocks touched by >= 2 threads.
        accesses_to_shared: accesses landing on those shared blocks.
        per_thread_accesses: access count per thread id.
        distinct_pcs: distinct program counters.
    """

    name: str
    num_accesses: int
    num_threads: int
    num_writes: int
    footprint_blocks: int
    shared_blocks: int
    accesses_to_shared: int
    per_thread_accesses: Tuple[int, ...]
    distinct_pcs: int

    @property
    def write_fraction(self) -> float:
        """Stores as a fraction of all accesses."""
        return ratio(self.num_writes, self.num_accesses)

    @property
    def shared_block_fraction(self) -> float:
        """Fraction of the block footprint that is (statically) shared."""
        return ratio(self.shared_blocks, self.footprint_blocks)

    @property
    def shared_access_fraction(self) -> float:
        """Fraction of accesses that land on statically shared blocks."""
        return ratio(self.accesses_to_shared, self.num_accesses)

    @property
    def footprint_bytes(self) -> int:
        """Footprint in bytes (block-granular)."""
        return self.footprint_blocks * BLOCK_BYTES_DEFAULT


def compute_trace_statistics(
    trace: Trace, block_bytes: int = BLOCK_BYTES_DEFAULT
) -> TraceStatistics:
    """:class:`TraceStatistics` of ``trace``, as numpy reductions."""
    tids, pcs, addrs, writes = map(np.asarray, trace.columns())
    num_threads = trace.num_threads
    # Number the distinct blocks; a block is shared when it appears in two
    # or more distinct (block, thread) pairs.
    blocks, block_ids = np.unique(addrs // block_bytes, return_inverse=True)
    width = max(num_threads, 1)
    pairs = np.unique(block_ids * width + tids)
    shared = np.bincount(pairs // width, minlength=len(blocks)) >= 2
    block_accesses = np.bincount(block_ids, minlength=len(blocks))
    return TraceStatistics(
        name=trace.name,
        num_accesses=len(trace),
        num_threads=num_threads,
        num_writes=int(writes.sum()),
        footprint_blocks=len(blocks),
        shared_blocks=int(np.count_nonzero(shared)),
        accesses_to_shared=int(block_accesses[shared].sum()),
        per_thread_accesses=tuple(
            np.bincount(tids, minlength=num_threads).tolist()),
        distinct_pcs=len(np.unique(pcs)),
    )
