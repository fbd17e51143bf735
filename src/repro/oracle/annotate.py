"""Building and consuming the oracle's fill-time sharing annotation.

:func:`build_stream_annotation` is **policy-free**: for every stream
position it counts the future accesses to that block by *other* cores
within a retention horizon. A fill's positive budget means "this block
will be shared during a residency of achievable length"; the wrapper
protects the block until those cross-core uses have been served. Because
every position is annotated, fills occurring at positions that were hits
under some other policy still find their budget — annotation and replay
align by stream ordinal regardless of policy.
:class:`AnnotationHintSource` hands the budgets to the wrapper.
"""

from array import array

import numpy as np

from repro.cache.stream import LlcStream
from repro.common.config import CacheGeometry
from repro.common.errors import ConfigError, SimulationError

BUDGET_CAP = 127
"""Budgets saturate here; protection beyond ~100 uses changes nothing."""


def build_stream_annotation(
    stream: LlcStream,
    geometry: CacheGeometry,
    horizon_factor: int,
    cap: int = BUDGET_CAP,
) -> array:
    """Annotate every stream position with its future cross-core uses.

    ``budgets[i + 1]`` (ordinals are 1-based) is the number of accesses to
    ``blocks[i]`` by cores other than ``cores[i]`` within the next
    ``horizon_factor * geometry.num_blocks`` stream positions, saturated at
    ``cap``. The horizon models the longest residency worth engineering
    for: sharing farther out than several full cache turnovers cannot be
    captured by any replacement decision made now.

    Vectorized via packed-key sorts and one searchsorted each. Each access
    is packed into ``(group << shift) | position`` (with ``2^shift >= n``),
    so one values-only sort lines every group up as a contiguous run of
    ascending positions. For the access at sorted index ``k`` with window
    end ``limit``, the count of same-group accesses after it up to
    ``limit`` is ``searchsorted(keys, (group << shift) | limit, 'right') -
    k - 1``. The queries go in sorted-key order: the limit grows with the
    position, so they are nondecreasing, and numpy's binary search starts
    each one from the previous answer, so consecutive searches probe
    nearby, cached keys instead of random ones. One scatter through the
    sorted positions then puts the counts back in stream order. Doing this
    once grouped by block and once grouped by (block, core) yields total
    and same-core future counts; their difference is the cross-core
    budget. Both passes reuse three stream-length buffers (keys, sorted
    positions, queries) and the total scatters straight into the int32
    budgets, so the only other allocation is each search's result: fresh
    temporaries cost measurable peak RSS (DESIGN.md decision 5). Blocks
    too large to pack are factorized to dense ids first;
    :class:`SimulationError` when even dense ids cannot pack.
    """
    if horizon_factor <= 0 or cap <= 0:
        raise ConfigError("horizon_factor and cap must be positive")
    n = len(stream)
    budgets = array("i", bytes(4 * (n + 1)))
    if n == 0:
        return budgets
    horizon = horizon_factor * geometry.num_blocks
    cores_np, __, blocks_np, __ = stream.numpy_columns()
    num_cores = max(int(cores_np.max()) + 1, 1)
    shift = max(n - 1, 1).bit_length()

    groups = blocks_np
    # The (block, core) grouping needs block * num_cores + core to pack
    # beside a position; factorize when raw block addresses are too wide.
    if int(groups.min()) < 0 or (
        (int(groups.max()) * num_cores + num_cores) >> (63 - shift)
    ) != 0:
        __, groups = np.unique(groups, return_inverse=True)
        groups = groups.astype(np.int64, copy=False)
        if (n * num_cores) >> (63 - shift) != 0:
            raise SimulationError(
                f"annotation pack overflows int64 for a {n}-access stream"
            )

    positions = np.arange(n, dtype=np.int64)
    mask = (1 << shift) - 1
    keys = groups.astype(np.int64)
    order = np.empty_like(keys)
    queries = np.empty_like(keys)

    def future_counts(out):
        # keys holds the group ids on entry. Sorted index k queries
        # (group << shift) | limit of its access, and keys - order is its
        # group part; limits grow with positions, so the queries are
        # nondecreasing.
        np.left_shift(keys, shift, out=keys)
        np.bitwise_or(keys, positions, out=keys)
        keys.sort()
        np.bitwise_and(keys, mask, out=order)
        np.add(order, horizon, out=queries)
        np.minimum(queries, n - 1, out=queries)
        np.add(queries, keys, out=queries)
        np.subtract(queries, order, out=queries)
        found = np.searchsorted(keys, queries, side="right")
        found -= positions
        found -= 1
        out[order] = found

    # array('i') exposes a writable buffer; fill ordinals 1..n in place.
    counts = np.frombuffer(budgets, dtype=np.int32)[1:]
    future_counts(counts)
    np.multiply(groups, num_cores, out=keys)
    keys += cores_np
    future_counts(keys)
    counts -= keys
    np.minimum(counts, cap, out=counts)
    return budgets


class AnnotationHintSource:
    """A wrapper hint source backed by a precomputed annotation array.

    Matches :class:`SharingAwareWrapper`'s hint signature and keys into
    ``budgets`` by the wrapping LLC's current access ordinal (== the fill
    ordinal during an ``on_fill``). Being a recognizable *class* — rather
    than a closure — is what lets the native backend
    (:mod:`repro.sim.nativepath`) detect that a wrapper's hints are pure
    offline data and export them as a stream-aligned int column instead of
    calling back into Python per fill; ``budgets`` is read for exactly that
    export. Exact type matters: a subclass that overrides
    ``__call__`` no longer guarantees ``hint(i) == budgets[i]`` and must
    fall back to the object model.
    """

    __slots__ = ("budgets",)

    def __init__(self, budgets: array):
        self.budgets = budgets

    def __call__(self, llc, block: int, pc: int, core: int) -> int:
        return self.budgets[llc.access_count]

