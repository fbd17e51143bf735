"""The shared last-level cache.

Tag state (which block occupies which way) lives here; replacement metadata
lives in the attached :class:`repro.policies.ReplacementPolicy`. On top of
plain hit/miss simulation the LLC maintains *residency metadata* per way —
fill ordinal, fill PC, fill core, the mask of cores that touched the block,
the mask that wrote it, and the demand-hit count — because nearly every
experiment in the paper consumes per-residency sharing information. When a
residency ends (eviction, or the final flush) all registered
:class:`ResidencyObserver` instances are notified.
"""

from typing import List, Optional, Tuple
from weakref import proxy

from repro.common.config import CacheGeometry
from repro.common.errors import SimulationError
from repro.policies.base import ReplacementPolicy

NO_BLOCK = -1
"""Way content marking an empty frame."""


class ResidencyObserver:
    """Receives one callback per completed LLC residency.

    Subclass and override :meth:`residency_ended`. Arguments are plain ints
    to keep the eviction path allocation-free.
    """

    def consume_walk(self, walk) -> bool:
        """Take a set-tier replay's whole walk instead of its callbacks.

        ``walk`` is the :class:`repro.sim.setpath.ReplayWalk` that the
        set and dueling tiers rebuild, whose numpy columns hold every
        residency the callbacks would describe. Return True when this
        observer has read all it needs from them; it then receives no
        :meth:`residency_started` or :meth:`residency_ended` call for that
        replay. The default returns False, so the callbacks come.
        """
        return False

    def residency_started(
        self, block: int, set_index: int, fill_ordinal: int, pc: int, core: int
    ) -> None:
        """Called when a fill starts a new residency (default: ignore).

        Predictor harnesses override this to make (and log) a fill-time
        prediction with the table state *as of the fill* — the point in time
        the paper's predictors must commit to a decision.
        """

    def residency_ended(
        self,
        block: int,
        set_index: int,
        fill_ordinal: int,
        end_ordinal: int,
        fill_pc: int,
        fill_core: int,
        core_mask: int,
        write_mask: int,
        hits: int,
        other_hits: int,
        forced: bool,
    ) -> None:
        """Called when a block leaves the LLC (or at the end-of-run flush).

        Args:
            block: the block address.
            set_index: set it resided in.
            fill_ordinal: LLC access ordinal (1-based count value) of the
                fill that started the residency.
            end_ordinal: LLC access ordinal at which the residency ended.
            fill_pc: PC of the instruction whose miss triggered the fill.
            fill_core: core that triggered the fill.
            core_mask: bitmask of cores that demand-accessed the block
                during the residency (includes the filler).
            write_mask: bitmask of cores that wrote it during the residency.
            hits: number of demand hits the residency served.
            other_hits: the subset of ``hits`` issued by cores other than
                the filler (the residency's cross-core uses).
            forced: True when the residency was ended by the final flush
                rather than an eviction.
        """
        raise NotImplementedError


class SharedLlc:
    """Shared, inclusive LLC with a pluggable replacement policy."""

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: ReplacementPolicy,
        observers: Tuple[ResidencyObserver, ...] = (),
    ):
        self.geometry = geometry
        self.policy = policy
        self.observers: List[ResidencyObserver] = list(observers)
        policy.bind(geometry)
        # A proxy, not self: a policy <-> LLC cycle would leave every
        # model replay's LLC to the cyclic collector.
        policy.attach(proxy(self))

        num_sets = geometry.num_sets
        ways = geometry.ways
        self.num_sets = num_sets
        self.ways = ways
        self._set_mask = num_sets - 1

        self._blocks: List[List[int]] = [[NO_BLOCK] * ways for __ in range(num_sets)]
        self._where: dict = {}  # block -> (set_index, way); global map is
        # faster in CPython than per-set dicts and blocks are unique LLC-wide.

        # Residency metadata, flat lists indexed by set_index * ways + way —
        # one index computation per access instead of six nested subscripts.
        frames = num_sets * ways
        self._fill_ordinal = [0] * frames
        self._fill_pc = [0] * frames
        self._fill_core = [0] * frames
        self._core_mask = [0] * frames
        self._write_mask = [0] * frames
        self._hit_count = [0] * frames
        self._other_hits = [0] * frames

        self._used = [0] * num_sets

        self.access_count = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def add_observer(self, observer: ResidencyObserver) -> None:
        """Register a residency observer."""
        self.observers.append(observer)

    def attach_probe_bus(self, bus) -> None:
        """Install per-access probe instrumentation (observability only).

        Attaching shadows :meth:`access` with an instance attribute bound
        to :meth:`_probed_access`, so an un-probed LLC executes the exact
        class method — the disabled-probe path carries zero extra branches
        or lookups on the hot loop (``tests/sim/test_probes.py`` pins that
        no unprobed replay attaches a bus). The bus sees every access
        *after* the cache model has fully processed it and must never
        mutate cache or policy state.
        """
        self._probe_bus = bus
        self.access = self._probed_access

    def _probed_access(self, core: int, pc: int, block: int, is_write: bool):
        hit, evicted = SharedLlc.access(self, core, pc, block, is_write)
        self._probe_bus.on_access(self, core, pc, block, is_write, hit, evicted)
        return hit, evicted

    def contains(self, block: int) -> bool:
        """Non-mutating residency check."""
        return block in self._where

    def set_index_of(self, block: int) -> int:
        """The set a block maps to (probes/diagnostics)."""
        return block & self._set_mask

    def access(self, core: int, pc: int, block: int, is_write: bool) -> Tuple[bool, int]:
        """Process one demand access reaching the LLC.

        Returns:
            ``(hit, evicted_block)`` where ``evicted_block`` is
            :data:`NO_BLOCK` when no eviction occurred. The caller (the
            hierarchy) performs back-invalidation of the evicted block.
        """
        self.access_count += 1
        where = self._where.get(block)
        if where is not None:
            set_index, way = where
            self.hits += 1
            idx = set_index * self.ways + way
            self._core_mask[idx] |= 1 << core
            if is_write:
                self._write_mask[idx] |= 1 << core
            self._hit_count[idx] += 1
            if core != self._fill_core[idx]:
                self._other_hits[idx] += 1
            self.policy.on_hit(set_index, way, block, pc, core, is_write)
            return True, NO_BLOCK

        self.misses += 1
        set_index = block & self._set_mask
        set_blocks = self._blocks[set_index]
        evicted = NO_BLOCK
        if self._used[set_index] < self.ways:
            way = set_blocks.index(NO_BLOCK)
            self._used[set_index] += 1
        else:
            way = self.policy.select_victim(set_index)
            if way < 0 or way >= self.ways:
                raise SimulationError(
                    f"policy {self.policy.name} chose invalid way {way}"
                ) from None
            evicted = set_blocks[way]
            self._end_residency(set_index, way, forced=False)
            self.policy.on_evict(set_index, way, evicted)
            del self._where[evicted]
            self.evictions += 1

        set_blocks[way] = block
        self._where[block] = (set_index, way)
        idx = set_index * self.ways + way
        self._fill_ordinal[idx] = self.access_count
        self._fill_pc[idx] = pc
        self._fill_core[idx] = core
        self._core_mask[idx] = 1 << core
        self._write_mask[idx] = (1 << core) if is_write else 0
        self._hit_count[idx] = 0
        self._other_hits[idx] = 0
        self.policy.on_fill(set_index, way, block, pc, core, is_write)
        if self.observers:
            for observer in self.observers:
                observer.residency_started(
                    block, set_index, self.access_count, pc, core
                )
        return False, evicted

    def _end_residency(self, set_index: int, way: int, forced: bool) -> None:
        if not self.observers:
            return
        block = self._blocks[set_index][way]
        idx = set_index * self.ways + way
        for observer in self.observers:
            observer.residency_ended(
                block,
                set_index,
                self._fill_ordinal[idx],
                self.access_count,
                self._fill_pc[idx],
                self._fill_core[idx],
                self._core_mask[idx],
                self._write_mask[idx],
                self._hit_count[idx],
                self._other_hits[idx],
                forced,
            )

    def flush_residencies(self) -> None:
        """End every live residency (call once, at end of simulation).

        Blocks stay resident — only the observers are notified — so stats
        cover blocks that never got evicted. Calling this mid-run would
        double-count residencies.
        """
        for set_index in range(self.num_sets):
            set_blocks = self._blocks[set_index]
            for way in range(self.ways):
                if set_blocks[way] != NO_BLOCK:
                    self._end_residency(set_index, way, forced=True)

    def occupancy(self) -> int:
        """Number of valid blocks currently resident."""
        return len(self._where)

    def resident_blocks(self) -> List[int]:
        """All resident block addresses (tests/debugging)."""
        return list(self._where)

    def __repr__(self) -> str:
        return (
            f"SharedLlc({self.geometry.describe()}, policy={self.policy.name}, "
            f"accesses={self.access_count})"
        )
