"""Sharer directory for the private cache levels.

One entry per block currently cached in at least one private hierarchy:
a bitmask of cores holding a valid copy. The directory is a bookkeeping
structure — invalidation of the private caches themselves is performed by
the hierarchy, which consults the masks returned here, and which tracks
dirty copies (for writeback counting) in its own per-core sets.
"""

from typing import Dict, Iterator, List, Tuple

from repro.common.errors import SimulationError


class Directory:
    """Tracks which cores privately cache each block.

    All methods are O(1) dict operations; masks are plain ints with bit
    ``c`` set when core ``c`` holds the block.
    """

    def __init__(self, num_cores: int):
        if num_cores <= 0:
            raise SimulationError(f"directory needs positive core count, got {num_cores}")
        self.num_cores = num_cores
        self._sharers: Dict[int, int] = {}

    def sharers(self, block: int) -> int:
        """Sharer bitmask of ``block`` (0 when privately uncached)."""
        return self._sharers.get(block, 0)

    def is_cached(self, block: int) -> bool:
        """True when any core privately caches ``block``."""
        return block in self._sharers

    def add_sharer(self, block: int, core: int) -> None:
        """Record that ``core`` now holds a private copy of ``block``."""
        self._sharers[block] = self._sharers.get(block, 0) | (1 << core)

    def remove_sharer(self, block: int, core: int) -> None:
        """Record that ``core`` dropped its private copy of ``block``."""
        mask = self._sharers.get(block, 0) & ~(1 << core)
        if mask:
            self._sharers[block] = mask
        else:
            self._sharers.pop(block, None)

    def set_exclusive(self, block: int, core: int) -> int:
        """Make ``core`` the sole sharer; returns the mask of *other* cores
        that must be invalidated by the caller."""
        bit = 1 << core
        others = self._sharers.get(block, 0) & ~bit
        self._sharers[block] = bit
        return others

    def clear_block(self, block: int) -> int:
        """Drop every sharer of ``block`` (LLC back-invalidation); returns
        the mask of cores that held it."""
        return self._sharers.pop(block, 0)

    def iter_cores(self, mask: int) -> Iterator[int]:
        """Yield core ids present in ``mask``."""
        core = 0
        while mask:
            if mask & 1:
                yield core
            mask >>= 1
            core += 1

    def entries(self) -> List[Tuple[int, int]]:
        """Snapshot of ``(block, mask)`` pairs (for tests/debugging)."""
        return list(self._sharers.items())

    def __len__(self) -> int:
        return len(self._sharers)
