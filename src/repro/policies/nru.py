"""Not-recently-used replacement.

One reference bit per way. Hits and fills set the bit; the victim is the
lowest-numbered way with a clear bit. When every bit in the set is set,
all bits except the just-touched information are cleared (the classic
one-bit approximation of LRU used by several commercial LLCs).
"""

from repro.policies.base import ReplacementPolicy


class NruPolicy(ReplacementPolicy):
    """One-reference-bit NRU."""

    name = "nru"

    def bind(self, geometry) -> None:
        super().bind(geometry)
        self._ref = [[0] * self.ways for __ in range(self.num_sets)]

    def on_fill(self, set_index, way, block, pc, core, is_write) -> None:
        self._touch(set_index, way)

    def on_hit(self, set_index, way, block, pc, core, is_write) -> None:
        self._touch(set_index, way)

    def _touch(self, set_index: int, way: int) -> None:
        bits = self._ref[set_index]
        bits[way] = 1
        if all(bits):
            for i in range(self.ways):
                bits[i] = 0
            bits[way] = 1

    def select_victim(self, set_index) -> int:
        bits = self._ref[set_index]
        for way in range(self.ways):
            if not bits[way]:
                return way
        # Unreachable while _touch maintains at least one clear bit in a
        # full set, but stay safe if state was externally perturbed.
        return 0

    def rank_victims(self, set_index) -> list:
        bits = self._ref[set_index]
        clear = [way for way in range(self.ways) if not bits[way]]
        set_ways = [way for way in range(self.ways) if bits[way]]
        return clear + set_ways

    def introspect(self) -> dict:
        snapshot = super().introspect()
        if self.geometry is None:
            return snapshot
        total = self.num_sets * self.ways
        set_bits = sum(sum(bits) for bits in self._ref)
        histogram = {}
        for bits in self._ref:
            count = sum(bits)
            histogram[count] = histogram.get(count, 0) + 1
        snapshot["ref_bits_set"] = set_bits
        snapshot["ref_bits_total"] = total
        snapshot["ref_bit_fraction"] = set_bits / total if total else 0.0
        snapshot["sets_by_ref_count"] = {
            str(k): v for k, v in sorted(histogram.items())
        }
        return snapshot
