"""RRIP family (Jaleel et al., ISCA 2010): SRRIP, BRRIP, DRRIP.

Each way holds an M-bit re-reference prediction value (RRPV). Hits promote
to RRPV 0 (hit-priority variant); the victim is any way at the maximum RRPV
(2^M - 1), aging every way when none qualifies. SRRIP inserts at
``max - 1`` ("long re-reference interval"); BRRIP inserts at ``max`` except
for a 1-in-32 fraction at ``max - 1``; DRRIP set-duels the two.
"""

from repro.common.errors import ConfigError
from repro.policies.base import ReplacementPolicy
from repro.policies.dip import DuelingController


class SrripPolicy(ReplacementPolicy):
    """Static RRIP with hit-priority promotion."""

    name = "srrip"

    def __init__(self, rrpv_bits: int = 2):
        super().__init__()
        if rrpv_bits <= 0:
            raise ConfigError(f"rrpv_bits must be positive, got {rrpv_bits}")
        self.rrpv_max = (1 << rrpv_bits) - 1

    def bind(self, geometry) -> None:
        super().bind(geometry)
        self._rrpv = [[self.rrpv_max] * self.ways for __ in range(self.num_sets)]

    def insertion_rrpv(self, set_index: int) -> int:
        """RRPV assigned to a fresh fill (overridden by BRRIP/DRRIP)."""
        return self.rrpv_max - 1

    def on_fill(self, set_index, way, block, pc, core, is_write) -> None:
        self._rrpv[set_index][way] = self.insertion_rrpv(set_index)

    def on_hit(self, set_index, way, block, pc, core, is_write) -> None:
        self._rrpv[set_index][way] = 0

    def select_victim(self, set_index) -> int:
        rrpvs = self._rrpv[set_index]
        rrpv_max = self.rrpv_max
        while True:
            for way in range(self.ways):
                if rrpvs[way] == rrpv_max:
                    return way
            for way in range(self.ways):
                rrpvs[way] += 1

    def rank_victims(self, set_index) -> list:
        # Perform the same aging select_victim would, so the wrapper's
        # choice leaves the set in the state SRRIP expects, then order by
        # descending RRPV (stalest first, way index breaking ties).
        rrpvs = self._rrpv[set_index]
        rrpv_max = self.rrpv_max
        while rrpv_max not in rrpvs:
            for way in range(self.ways):
                rrpvs[way] += 1
        return sorted(range(self.ways), key=lambda way: -rrpvs[way])

    def rrpv_values(self, set_index: int) -> tuple:
        """Read-only snapshot of one set's RRPVs (probe layer)."""
        return tuple(self._rrpv[set_index])

    def introspect(self) -> dict:
        snapshot = super().introspect()
        snapshot["rrpv_max"] = self.rrpv_max
        if self.geometry is None:
            return snapshot
        counts = {}
        for rrpvs in self._rrpv:
            for value in rrpvs:
                counts[value] = counts.get(value, 0) + 1
        snapshot["rrpv_histogram"] = {str(k): v for k, v in sorted(counts.items())}
        return snapshot


class BrripPolicy(SrripPolicy):
    """Bimodal RRIP: distant insertion except 1/``throttle`` long.

    Throttle draws come from per-set RNG streams (:meth:`set_rng`), so each
    set's draw sequence depends only on its own fill order — what makes the
    set-partitioned replay exact.
    """

    name = "brrip"

    def __init__(self, seed: int = 0, rrpv_bits: int = 2, throttle: int = 32):
        super().__init__(rrpv_bits)
        self._rng_seed = seed
        self._throttle = throttle

    @property
    def throttle(self) -> int:
        """1-in-``throttle`` fills insert long (read by replay kernels)."""
        return self._throttle

    def insertion_rrpv(self, set_index: int) -> int:
        if self.set_rng(set_index).randrange(self._throttle) == 0:
            return self.rrpv_max - 1
        return self.rrpv_max


class DrripPolicy(SrripPolicy):
    """Dynamic RRIP: set-duels SRRIP (A) against BRRIP (B)."""

    name = "drrip"

    def __init__(self, seed: int = 0, rrpv_bits: int = 2, throttle: int = 32,
                 num_leaders_each: int = 32, psel_bits: int = 10):
        super().__init__(rrpv_bits)
        self._rng_seed = seed
        self._throttle = throttle
        self._num_leaders_each = num_leaders_each
        self._psel_bits = psel_bits
        self.duel = None

    @property
    def throttle(self) -> int:
        """BRRIP epsilon of constituent B (read by replay kernels)."""
        return self._throttle

    def bind(self, geometry) -> None:
        super().bind(geometry)
        self.duel = self.new_duel(self.num_sets)

    def new_duel(self, num_sets: int) -> DuelingController:
        """A fresh controller, as :meth:`bind` builds it (replay kernels
        read it from the unbound instance)."""
        return DuelingController.clamped(
            num_sets, self._num_leaders_each, self._psel_bits
        )

    def insertion_rrpv(self, set_index: int) -> int:
        if self.duel.use_policy_b(set_index):
            if self.set_rng(set_index).randrange(self._throttle) == 0:
                return self.rrpv_max - 1
            return self.rrpv_max
        return self.rrpv_max - 1

    def on_fill(self, set_index, way, block, pc, core, is_write) -> None:
        self.duel.record_miss(set_index)
        super().on_fill(set_index, way, block, pc, core, is_write)

    def introspect(self) -> dict:
        snapshot = super().introspect()
        snapshot["duel"] = self.duel.describe() if self.duel else None
        snapshot["constituents"] = {"A": "srrip", "B": "brrip"}
        return snapshot
