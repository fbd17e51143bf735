"""SHiP-PC: signature-based hit prediction (Wu et al., MICRO 2011).

RRIP metadata plus a table of saturating counters (the SHCT) indexed by a
hashed *fill-PC signature*. A fill whose signature has historically earned
re-references is inserted with a long re-reference interval (RRPV max-1);
one predicted dead-on-arrival is inserted distant (RRPV max). On a first
hit the resident block's signature counter is incremented; a residency that
ends without any hit decrements it.

SHiP is the closest existing policy to a sharing-aware one the paper
evaluates: it already keys insertion on the fill PC, exactly the feature
the paper's PC-based *sharing* predictor probes — so comparing the two
isolates whether the PC carries sharing (rather than mere reuse)
information.
"""

from repro.common.errors import ConfigError
from repro.policies.rrip import SrripPolicy


class ShipPolicy(SrripPolicy):
    """SHiP-PC on an SRRIP substrate."""

    name = "ship"

    def __init__(self, rrpv_bits: int = 2, shct_bits: int = 14, counter_bits: int = 2):
        super().__init__(rrpv_bits)
        if shct_bits <= 0 or counter_bits <= 0:
            raise ConfigError("shct_bits and counter_bits must be positive")
        self.shct_size = 1 << shct_bits
        self._shct_mask = self.shct_size - 1
        self.counter_max = (1 << counter_bits) - 1
        self._shct = [self.counter_max // 2 + 1] * self.shct_size

    def bind(self, geometry) -> None:
        super().bind(geometry)
        self._signature = [[0] * self.ways for __ in range(self.num_sets)]
        self._outcome = [[0] * self.ways for __ in range(self.num_sets)]

    def _hash_pc(self, pc: int) -> int:
        """Fold the PC into the SHCT index space."""
        return ((pc >> 2) ^ (pc >> 11) ^ (pc >> 19)) & self._shct_mask

    def on_fill(self, set_index, way, block, pc, core, is_write) -> None:
        signature = self._hash_pc(pc)
        self._signature[set_index][way] = signature
        self._outcome[set_index][way] = 0
        if self._shct[signature] == 0:
            self._rrpv[set_index][way] = self.rrpv_max
        else:
            self._rrpv[set_index][way] = self.rrpv_max - 1

    def on_hit(self, set_index, way, block, pc, core, is_write) -> None:
        self._rrpv[set_index][way] = 0
        if not self._outcome[set_index][way]:
            self._outcome[set_index][way] = 1
            signature = self._signature[set_index][way]
            if self._shct[signature] < self.counter_max:
                self._shct[signature] += 1

    def on_evict(self, set_index, way, block) -> None:
        if not self._outcome[set_index][way]:
            signature = self._signature[set_index][way]
            if self._shct[signature] > 0:
                self._shct[signature] -= 1

    def shct_histogram(self) -> dict:
        """Counter-value distribution over the whole SHCT (probe layer)."""
        counts = {}
        for value in self._shct:
            counts[value] = counts.get(value, 0) + 1
        return counts

    def introspect(self) -> dict:
        snapshot = super().introspect()
        histogram = self.shct_histogram()
        initial = self.counter_max // 2 + 1
        trained = self.shct_size - histogram.get(initial, 0)
        snapshot["shct_size"] = self.shct_size
        snapshot["counter_max"] = self.counter_max
        snapshot["shct_histogram"] = {str(k): v for k, v in sorted(histogram.items())}
        snapshot["shct_trained_entries"] = trained
        snapshot["shct_dead_entries"] = histogram.get(0, 0)
        return snapshot
