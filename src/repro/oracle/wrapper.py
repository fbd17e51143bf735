"""The generic sharing-aware policy wrapper.

:class:`SharingAwareWrapper` composes a *hint source* — the oracle's
annotation, or a realistic predictor — with any base policy exposing
``rank_victims``. The hint for a fill is an integer cross-core-use budget:
0 means "will not be shared this residency"; a positive value both flags
the fill as will-be-shared and bounds how long protecting it can pay off.

Protection mechanisms (``mode``; the A1 ablation sweeps them):

* ``victim-exempt`` — a way holding a hinted block is skipped during victim
  selection while any unhinted way exists. The base policy's preference
  order is respected among unhinted ways, and when every way is protected
  the wrapper falls back to the base's first choice, so it degrades to the
  base policy on hint-free workloads.
* ``insert-promote`` — a hinted fill is promoted to the base policy's
  highest-priority state (via a synthetic hit), biasing recency/RRPV
  without constraining victim choice.
* ``both`` — the two combined (default; the strongest oracle).

Release policies (``release``; also in A1):

* ``budget`` (default) — each cross-core hit decrements the block's
  remaining budget; protection is released when it reaches zero. A block
  whose predicted sharing has fully materialised competes under the base
  policy like any other block, so dead-after-sharing blocks (migratory
  records) cannot pin capacity.
* ``first-share`` — released at the first cross-core hit (the weakest
  oracle; equivalent to ``budget`` when hints come from a boolean
  predictor, whose budget is 1).
* ``never`` — protection lasts the whole residency.
"""

from typing import Callable

from repro.common.errors import ConfigError
from repro.policies.base import ReplacementPolicy

PROTECTION_MODES = ("victim-exempt", "insert-promote", "both")
"""Valid ``mode`` values for :class:`SharingAwareWrapper`."""

RELEASE_POLICIES = ("budget", "first-share", "never")
"""Valid ``release`` values for :class:`SharingAwareWrapper`."""

HintSource = Callable[[object, int, int, int], int]
"""``hint(llc, block, pc, core) -> cross-core-use budget`` at fill time."""


class SharingAwareWrapper(ReplacementPolicy):
    """Sharing-awareness layered over any ranked-victim base policy."""

    def __init__(self, base: ReplacementPolicy, hint_source: HintSource,
                 mode: str = "both", release: str = "budget"):
        super().__init__()
        if mode not in PROTECTION_MODES:
            raise ConfigError(f"unknown mode {mode!r}; choose from {PROTECTION_MODES}")
        if release not in RELEASE_POLICIES:
            raise ConfigError(
                f"unknown release {release!r}; choose from {RELEASE_POLICIES}"
            )
        self.base = base
        self.hint_source = hint_source
        self.mode = mode
        self.release = release
        self.name = f"oracle-{mode}({base.name})"
        self.protected_fills = 0
        self.exemptions_applied = 0
        self.releases = 0

    def bind(self, geometry) -> None:
        super().bind(geometry)
        self.base.bind(geometry)
        # Remaining cross-core-use budget per way; 0 = unprotected.
        self._budget = [[0] * self.ways for __ in range(self.num_sets)]
        self._fill_core = [[0] * self.ways for __ in range(self.num_sets)]

    def attach(self, llc) -> None:
        super().attach(llc)
        self.base.attach(llc)

    def on_fill(self, set_index, way, block, pc, core, is_write) -> None:
        self.base.on_fill(set_index, way, block, pc, core, is_write)
        budget = int(self.hint_source(self.llc, block, pc, core))
        self._budget[set_index][way] = budget
        self._fill_core[set_index][way] = core
        if budget > 0:
            self.protected_fills += 1
            if self.mode != "victim-exempt":
                # Synthetic hit: the base promotes exactly as it would on a
                # real re-reference, whatever its metadata looks like.
                self.base.on_hit(set_index, way, block, pc, core, is_write)

    def on_hit(self, set_index, way, block, pc, core, is_write) -> None:
        self.base.on_hit(set_index, way, block, pc, core, is_write)
        if (
            self.release != "never"
            and self._budget[set_index][way] > 0
            and core != self._fill_core[set_index][way]
        ):
            if self.release == "first-share":
                self._budget[set_index][way] = 0
            else:
                self._budget[set_index][way] -= 1
            if self._budget[set_index][way] == 0:
                self.releases += 1

    def select_victim(self, set_index) -> int:
        budgets = self._budget[set_index]
        if self.mode == "insert-promote" or not any(budgets):
            # Nothing to exempt: defer entirely to the base so a hint-free
            # run is bit-identical to the unwrapped policy (including its
            # RNG consumption).
            return self.base.select_victim(set_index)
        way, first = self.base.preferred_victim(set_index, budgets)
        if way < 0:
            return first
        if way != first:
            self.exemptions_applied += 1
        return way

    def on_evict(self, set_index, way, block) -> None:
        self.base.on_evict(set_index, way, block)
        self._budget[set_index][way] = 0

    def rank_victims(self, set_index) -> list:
        order = self.base.rank_victims(set_index)
        if self.mode == "insert-promote":
            return order
        budgets = self._budget[set_index]
        return [w for w in order if budgets[w] <= 0] + [
            w for w in order if budgets[w] > 0
        ]
