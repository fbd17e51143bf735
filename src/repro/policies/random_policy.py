"""Random replacement: the zero-information baseline."""

from repro.policies.base import ReplacementPolicy


class RandomPolicy(ReplacementPolicy):
    """Evicts a uniformly random way; keeps no recency state.

    Victim draws come from per-set RNG streams (:meth:`set_rng`), so each
    set's draw sequence depends only on its own eviction order — what makes
    the set-partitioned replay exact.
    """

    name = "random"

    def __init__(self, seed: int = 0):
        super().__init__()
        self._rng_seed = seed

    def on_fill(self, set_index, way, block, pc, core, is_write) -> None:
        pass

    def on_hit(self, set_index, way, block, pc, core, is_write) -> None:
        pass

    def select_victim(self, set_index) -> int:
        return self.set_rng(set_index).randrange(self.ways)

    def rank_victims(self, set_index) -> list:
        order = list(range(self.ways))
        self.set_rng(set_index).shuffle(order)
        return order

    def introspect(self) -> dict:
        snapshot = super().introspect()
        snapshot["seed"] = self._rng_seed
        snapshot["set_rng_streams"] = len(self._set_rngs)
        return snapshot
