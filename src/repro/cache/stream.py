"""Recorded LLC-level access streams.

The stream of demand accesses that reach the LLC (private-L2 misses) is
recorded once, under the baseline hierarchy, and then replayed against any
number of LLC policies. Replay guarantees every policy — including OPT and
the oracle, which need the future — observes the *identical* stream; see
DESIGN.md for why this is the standard methodology (and the one
approximation it entails under inclusion).

Storage mirrors :class:`repro.trace.Trace`: four parallel arrays.
"""

from array import array
from typing import Iterator, NamedTuple, Tuple

import numpy as np

from repro.common.errors import TraceError
from repro.trace.trace import extend_column


def frozen_view(column, dtype):
    """Zero-copy read-only numpy view over one column buffer."""
    if len(column) == 0:
        return np.empty(0, dtype=dtype)
    view = np.frombuffer(column, dtype=dtype)
    view.flags.writeable = False
    return view


class LlcAccess(NamedTuple):
    """One demand access reaching the LLC."""

    core: int
    pc: int
    block: int
    is_write: bool


class LlcStream:
    """Immutable recorded LLC access stream."""

    def __init__(self, cores: array, pcs: array, blocks: array, writes: array,
                 name: str = "llc-stream"):
        lengths = {len(cores), len(pcs), len(blocks), len(writes)}
        if len(lengths) != 1:
            raise TraceError(f"LLC stream column lengths disagree: {sorted(lengths)}")
        self._cores = cores
        self._pcs = pcs
        self._blocks = blocks
        self._writes = writes
        self.name = name

    @property
    def cores(self) -> array:
        """Core-id column."""
        return self._cores

    @property
    def pcs(self) -> array:
        """Fill-PC column."""
        return self._pcs

    @property
    def blocks(self) -> array:
        """Block-address column."""
        return self._blocks

    @property
    def writes(self) -> array:
        """Is-write column (0/1)."""
        return self._writes

    def columns(self) -> Tuple[array, array, array, array]:
        """``(cores, pcs, blocks, writes)`` for bulk consumers."""
        return self._cores, self._pcs, self._blocks, self._writes

    def numpy_columns(self) -> Tuple:
        """``(cores, pcs, blocks, writes)`` as read-only numpy views.

        Zero-copy: the views alias the stream's own column buffers (the
        whole point — vectorized kernels must not pay a materialization
        copy per replay).
        """
        return (
            frozen_view(self._cores, np.int8),
            frozen_view(self._pcs, np.int64),
            frozen_view(self._blocks, np.int64),
            frozen_view(self._writes, np.int8),
        )

    @property
    def num_cores(self) -> int:
        """1 + maximum core id appearing in the stream (0 when empty)."""
        if len(self._cores) == 0:
            return 0
        # Columns are array.array normally, but zero-copy loads
        # (:func:`repro.cache.stream_io.read_llc_stream`) back them with
        # mmap-based numpy views; ndarray.max avoids a Python-level scan.
        column = self._cores
        peak = column.max() if hasattr(column, "max") else max(column)
        return int(peak) + 1

    def __len__(self) -> int:
        return len(self._cores)

    def __getitem__(self, index: int) -> LlcAccess:
        return LlcAccess(
            self._cores[index],
            self._pcs[index],
            self._blocks[index],
            bool(self._writes[index]),
        )

    def __iter__(self) -> Iterator[LlcAccess]:
        for i in range(len(self._cores)):
            yield LlcAccess(
                self._cores[i], self._pcs[i], self._blocks[i], bool(self._writes[i])
            )

    def __repr__(self) -> str:
        return f"LlcStream(name={self.name!r}, len={len(self)})"


class LlcStreamBuilder:
    """Accumulates an :class:`LlcStream` during a hierarchy run."""

    def __init__(self, name: str = "llc-stream"):
        self.name = name
        self._cores = array("b")
        self._pcs = array("q")
        self._blocks = array("q")
        self._writes = array("b")

    def append(self, core: int, pc: int, block: int, is_write: bool) -> None:
        """Record one LLC demand access."""
        self._cores.append(core)
        self._pcs.append(pc)
        self._blocks.append(block)
        self._writes.append(1 if is_write else 0)

    def extend(self, cores, pcs, blocks, writes) -> None:
        """Record many LLC demand accesses, given as numpy columns."""
        for column, values in zip(
                (self._cores, self._pcs, self._blocks, self._writes),
                (cores, pcs, blocks, writes)):
            extend_column(column, values)

    def __len__(self) -> int:
        return len(self._cores)

    def build(self) -> LlcStream:
        """Freeze into an :class:`LlcStream`."""
        return LlcStream(self._cores, self._pcs, self._blocks, self._writes, self.name)
