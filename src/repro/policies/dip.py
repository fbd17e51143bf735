"""BIP and DIP (dynamic insertion policy), Qureshi et al., ISCA 2007.

BIP inserts at LRU except for a 1-in-``bip_throttle`` fraction of fills that
go to MRU — enough to adapt when the working set changes while still
filtering thrashing fills. DIP set-duels LRU against BIP: a few *leader
sets* always run one constituent, a saturating PSEL counter scores their
misses, and every other (follower) set adopts the currently winning policy.

:class:`DuelingController` is shared with DRRIP.
"""

from repro.common.errors import ConfigError
from repro.policies.lru import LruPolicy


class DuelingController:
    """Set-dueling machinery: leader-set mapping plus the PSEL counter.

    Leader sets are spread through the index space: within every window of
    ``num_sets / num_leaders_each`` sets, the first set leads for policy A
    and the middle set leads for policy B. PSEL counts *misses*: a miss in
    an A-leader increments (evidence against A), a miss in a B-leader
    decrements. Followers use policy B when PSEL's MSB says A is losing.
    """

    LEADER_A = 0
    LEADER_B = 1
    FOLLOWER = 2

    def __init__(self, num_sets: int, num_leaders_each: int = 32, psel_bits: int = 10):
        if num_leaders_each <= 0 or 2 * num_leaders_each > num_sets:
            raise ConfigError(
                f"cannot place 2*{num_leaders_each} leader sets in {num_sets} sets"
            )
        self._window = num_sets // num_leaders_each
        self._half_window = self._window // 2
        self._psel_max = (1 << psel_bits) - 1
        self._psel = self._psel_max // 2
        self._threshold = 1 << (psel_bits - 1)

    @classmethod
    def clamped(cls, num_sets: int, num_leaders_each: int,
                psel_bits: int) -> "DuelingController":
        """The controller a dueling policy builds at bind.

        Clamps the leader count for small caches: at most half the sets
        can lead (the paper-standard 32 assumes thousands of sets).
        """
        leaders = max(1, min(num_leaders_each, num_sets // 2))
        return cls(num_sets, leaders, psel_bits)

    def role(self, set_index: int) -> int:
        """LEADER_A / LEADER_B / FOLLOWER for this set."""
        offset = set_index % self._window
        if offset == 0:
            return self.LEADER_A
        if offset == self._half_window:
            return self.LEADER_B
        return self.FOLLOWER

    def record_miss(self, set_index: int) -> None:
        """Update PSEL when a leader set misses."""
        offset = set_index % self._window
        if offset == 0:
            if self._psel < self._psel_max:
                self._psel += 1
        elif offset == self._half_window:
            if self._psel > 0:
                self._psel -= 1

    def use_policy_b(self, set_index: int) -> bool:
        """Which constituent this set should apply for the current fill."""
        role = self.role(set_index)
        if role == self.LEADER_A:
            return False
        if role == self.LEADER_B:
            return True
        return self._psel >= self._threshold

    @property
    def psel(self) -> int:
        """Current PSEL value (exposed for tests and ablations)."""
        return self._psel

    @property
    def psel_max(self) -> int:
        """Saturation ceiling of the PSEL counter."""
        return self._psel_max

    @property
    def threshold(self) -> int:
        """PSEL value at and above which followers adopt policy B."""
        return self._threshold

    def describe(self) -> dict:
        """JSON-able snapshot of the dueling state (probe layer)."""
        return {
            "psel": self._psel,
            "psel_max": self._psel_max,
            "threshold": self._threshold,
            "leader_window": self._window,
            "winning": "B" if self._psel >= self._threshold else "A",
        }


class BipPolicy(LruPolicy):
    """Bimodal insertion: LRU insertion except 1/``bip_throttle`` at MRU.

    Epsilon draws come from per-set RNG streams (:meth:`set_rng`), so each
    set's draw sequence depends only on its own fill order — the property
    that keeps set-partitioned replay exact.
    """

    name = "bip"

    def __init__(self, seed: int = 0, bip_throttle: int = 32):
        super().__init__()
        if bip_throttle <= 0:
            raise ConfigError(f"bip_throttle must be positive, got {bip_throttle}")
        self._rng_seed = seed
        self._throttle = bip_throttle

    @property
    def throttle(self) -> int:
        """1-in-``throttle`` fills insert at MRU (read by replay kernels)."""
        return self._throttle

    def on_fill(self, set_index, way, block, pc, core, is_write) -> None:
        stamps = self._stamps[set_index]
        if self.set_rng(set_index).randrange(self._throttle) == 0:
            self._clock += 1
            stamps[way] = self._clock
        else:
            stamps[way] = min(stamps) - 1


class DipPolicy(LruPolicy):
    """Dynamic insertion policy: set-duels LRU (A) against BIP (B)."""

    name = "dip"

    def __init__(self, seed: int = 0, bip_throttle: int = 32,
                 num_leaders_each: int = 32, psel_bits: int = 10):
        super().__init__()
        self._rng_seed = seed
        self._throttle = bip_throttle
        self._num_leaders_each = num_leaders_each
        self._psel_bits = psel_bits
        self.duel = None

    @property
    def throttle(self) -> int:
        """BIP epsilon of constituent B (read by replay kernels)."""
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

    def on_fill(self, set_index, way, block, pc, core, is_write) -> None:
        self.duel.record_miss(set_index)
        stamps = self._stamps[set_index]
        use_bip = self.duel.use_policy_b(set_index)
        if not use_bip or self.set_rng(set_index).randrange(self._throttle) == 0:
            self._clock += 1
            stamps[way] = self._clock
        else:
            stamps[way] = min(stamps) - 1

    def introspect(self) -> dict:
        snapshot = super().introspect()
        snapshot["duel"] = self.duel.describe() if self.duel else None
        snapshot["constituents"] = {"A": "lru", "B": "bip"}
        return snapshot
