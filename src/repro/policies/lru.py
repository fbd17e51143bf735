"""LRU and LIP (LRU-insertion policy).

Both use monotone recency stamps: one global counter, one stamp per way.
The victim is the way with the smallest stamp; a hit refreshes the stamp.
LIP differs only at insertion: a filled block receives a stamp *below* the
current set minimum, i.e. it is inserted at the LRU position and must earn
a hit to be promoted (Qureshi et al., ISCA 2007).
"""

from repro.policies.base import ReplacementPolicy


class LruPolicy(ReplacementPolicy):
    """Least-recently-used replacement with MRU insertion."""

    name = "lru"

    def bind(self, geometry) -> None:
        super().bind(geometry)
        self._clock = 0
        self._stamps = [[0] * self.ways for __ in range(self.num_sets)]

    def on_fill(self, set_index, way, block, pc, core, is_write) -> None:
        self._clock += 1
        self._stamps[set_index][way] = self._clock

    def on_hit(self, set_index, way, block, pc, core, is_write) -> None:
        self._clock += 1
        self._stamps[set_index][way] = self._clock

    def select_victim(self, set_index) -> int:
        stamps = self._stamps[set_index]
        return stamps.index(min(stamps))

    def rank_victims(self, set_index) -> list:
        stamps = self._stamps[set_index]
        return sorted(range(self.ways), key=stamps.__getitem__)

    def preferred_victim(self, set_index, blocked) -> tuple:
        # Stamp order is a pure sort (ties broken by way index, matching
        # sorted()'s stability), so two linear scans replace the default's
        # rank_victims() sort on this eviction-path hot spot.
        stamps = self._stamps[set_index]
        first = stamps.index(min(stamps))
        best = -1
        best_stamp = 0
        for way, stamp in enumerate(stamps):
            if blocked[way] <= 0 and (best < 0 or stamp < best_stamp):
                best, best_stamp = way, stamp
        return best, first


class LipPolicy(LruPolicy):
    """LRU-insertion policy: fills land at the LRU position."""

    name = "lip"

    def on_fill(self, set_index, way, block, pc, core, is_write) -> None:
        stamps = self._stamps[set_index]
        stamps[way] = min(stamps) - 1
