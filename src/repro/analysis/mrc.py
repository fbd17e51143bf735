"""Miss-ratio curves (MRC) from a single profiling pass.

Uses the Mattson stack-distance histogram of an LLC stream to produce the
fully-associative LRU miss ratio at *every* capacity at once — the
one-pass alternative to simulating each size. The distances come from a
Fenwick tree over last-use positions (:func:`stack_distances`), O(log n)
per access whatever the stack depth. Set-associative LRU tracks the
fully-associative curve closely at the paper's 16-way associativity, so
the MRC serves as an independent cross-check of the simulator (tested)
and as the cheap scout for capacity sweeps (F7).
"""

from array import array
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.cache.stream import LlcStream
from repro.common.errors import ConfigError
from repro.common.stats import ratio


@dataclass(frozen=True)
class MissRatioCurve:
    """A monotone non-increasing miss-ratio curve over block capacities."""

    stream_name: str
    accesses: int
    points: Tuple[Tuple[int, float], ...]  # (capacity_blocks, miss_ratio)

    def miss_ratio_at(self, capacity_blocks: int) -> float:
        """Miss ratio at one of the computed capacities.

        Raises:
            ConfigError: if the capacity was not part of the sweep.
        """
        for capacity, miss_ratio in self.points:
            if capacity == capacity_blocks:
                return miss_ratio
        raise ConfigError(
            f"capacity {capacity_blocks} not in curve "
            f"({[c for c, __ in self.points]})"
        )

    def knee_capacity(self, threshold: float = 0.5) -> int:
        """Smallest computed capacity whose miss ratio is below ``threshold``.

        Returns the largest capacity when none qualifies — a capacity-bound
        stream whose working set exceeds the sweep.
        """
        for capacity, miss_ratio in self.points:
            if miss_ratio < threshold:
                return capacity
        return self.points[-1][0]


def stack_distances(blocks: Sequence[int], cap: int) -> array:
    """Fully associative LRU stack distance of every access, capped.

    Returns an ``array('i')``: the number of distinct blocks touched since
    the block's last use when that is below ``cap``, and ``cap`` for deeper
    reuses and cold misses. The distance is the number of blocks whose
    last use comes after the block's own, so a Fenwick tree with a 1 at
    each block's last-use position answers it with one prefix sum, and
    moving the block's mark to the current position costs two updates.
    """
    blocks = blocks.tolist() if hasattr(blocks, "tolist") else list(blocks)
    n = len(blocks)
    tree = [0] * (n + 1)
    last = {}
    out = array("i", [0]) * n
    for i, block in enumerate(blocks, 1):
        mark = last.get(block)
        if mark is None:
            out[i - 1] = cap
        else:
            below = 0  # marks at positions <= mark, its own included
            j = mark
            while j:
                below += tree[j]
                j &= j - 1
            out[i - 1] = min(len(last) - below, cap)
            j = mark
            while j <= n:
                tree[j] -= 1
                j += j & -j
        last[block] = i
        j = i
        while j <= n:
            tree[j] += 1
            j += j & -j
    return out


def compute_mrc(
    stream: LlcStream,
    capacities_blocks: Sequence[int],
    max_depth: int = 1 << 17,
) -> MissRatioCurve:
    """Profile ``stream`` once and evaluate the LRU MRC at each capacity.

    :func:`stack_distances` gives every access's distance, capped at
    ``max_depth`` (cold misses and deeper reuses take the sentinel
    ``max_depth``); one ``bincount`` of the distances and a
    cumulative-sum threshold per capacity give its hits,
    ``distance < capacity``.

    Args:
        stream: recorded LLC demand stream.
        capacities_blocks: capacities (in blocks) to evaluate, any order.
        max_depth: stack-depth cap; must cover the largest capacity.

    Raises:
        ConfigError: on an empty capacity list, a non-positive depth or a
            capacity exceeding the depth.
    """
    capacities = sorted(set(capacities_blocks))
    if not capacities:
        raise ConfigError("need at least one capacity")
    if max_depth <= 0:
        raise ConfigError(f"max_depth must be positive, got {max_depth}")
    if capacities[-1] > max_depth:
        raise ConfigError(
            f"largest capacity {capacities[-1]} exceeds max_depth {max_depth}"
        )
    n = len(stream.blocks)
    distances = np.frombuffer(
        stack_distances(stream.blocks, max_depth), dtype=np.int32)
    # hits[c] = accesses with distance < c.
    hits = np.zeros(max_depth + 2, dtype=np.int64)
    np.cumsum(np.bincount(distances, minlength=max_depth + 1), out=hits[1:])
    points: List[Tuple[int, float]] = [
        (capacity, ratio(n - int(hits[max(capacity, 0)]), n))
        for capacity in capacities
    ]
    return MissRatioCurve(
        stream_name=stream.name, accesses=len(stream), points=tuple(points)
    )
