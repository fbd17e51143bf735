"""Private per-core cache level (L1 or L2), strictly LRU.

Implementation: one recency-ordered list of block addresses per set, MRU at
index 0. For the small associativities of private levels (8 ways) linear
list operations beat fancier structures in CPython, and the move-to-front
list *is* the LRU metadata — there is nothing else to keep consistent.
"""

from typing import List, Optional

from repro.common.config import CacheGeometry


class PrivateCache:
    """A set-associative LRU cache holding block addresses.

    The cache stores no data and no dirty bits — functional simulation only
    needs presence. The hierarchy tracks dirtiness in per-core sets, at the
    granularity the experiments need (writeback counting).
    """

    def __init__(self, geometry: CacheGeometry, name: str = "private"):
        self.geometry = geometry
        self.name = name
        self.num_sets = geometry.num_sets
        self.ways = geometry.ways
        self._set_mask = self.num_sets - 1
        self._sets: List[List[int]] = [[] for __ in range(self.num_sets)]

    def access(self, block: int) -> bool:
        """Probe for ``block``; on a hit promote it to MRU and return True.

        A miss does *not* allocate — call :meth:`fill` after the lower
        levels have supplied the block, mirroring the request/response split
        of a real hierarchy.
        """
        lru_list = self._sets[block & self._set_mask]
        if block in lru_list:
            if lru_list[0] != block:
                lru_list.remove(block)
                lru_list.insert(0, block)
            return True
        return False

    def fill(self, block: int) -> Optional[int]:
        """Install ``block`` at MRU; returns the evicted block or None.

        Filling a block that is already resident only refreshes recency.
        """
        lru_list = self._sets[block & self._set_mask]
        if block in lru_list:
            if lru_list[0] != block:
                lru_list.remove(block)
                lru_list.insert(0, block)
            return None
        lru_list.insert(0, block)
        if len(lru_list) > self.ways:
            return lru_list.pop()
        return None

    def invalidate(self, block: int) -> bool:
        """Drop ``block`` if present; returns whether it was resident."""
        lru_list = self._sets[block & self._set_mask]
        if block in lru_list:
            lru_list.remove(block)
            return True
        return False

    def contains(self, block: int) -> bool:
        """Non-destructive presence check (no recency update)."""
        return block in self._sets[block & self._set_mask]

    def resident_blocks(self) -> List[int]:
        """All resident blocks (tests/debugging)."""
        out: List[int] = []
        for lru_list in self._sets:
            out.extend(lru_list)
        return out

    def __repr__(self) -> str:
        return f"PrivateCache({self.name}, {self.geometry.describe()})"
