"""The full CMP cache hierarchy (online simulation).

Per-core private L1D and unified L2 (both strict LRU), a directory keeping
them coherent under an invalidation protocol, and one shared inclusive LLC.
Threads map 1:1 onto cores (the paper pins one thread per core).

Protocol, functionally:

* read: served by the innermost level holding the block; an L2 miss issues
  a demand access to the LLC and fills L2 then L1; the directory gains the
  core as a sharer.
* write: same path for data, then the writer becomes the exclusive dirty
  owner — every other core's private copies are invalidated (an *upgrade*
  when the writer already held the block; upgrades do not touch the LLC's
  replacement or residency state, matching a directory-only transaction).
* private L2 eviction: back-invalidates the core's L1 (L1 ⊆ L2) and drops
  the core from the directory; a dirty victim counts as a writeback
  (writebacks hit the inclusive LLC and are not replacement events).
* LLC eviction: back-invalidates every private copy (inclusion victims).
  A ``inclusive=False`` hierarchy skips back-invalidation: private copies
  survive LLC evictions (non-inclusive organisation), trading directory
  growth for the removal of inclusion victims — useful for quantifying how
  much of a sharing-heavy workload's LLC traffic is inclusion-induced.
"""

import itertools
from array import array
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.cache.llc import NO_BLOCK, SharedLlc
from repro.cache.private import PrivateCache
from repro.cache.stream import LlcStreamBuilder
from repro.coherence.directory import Directory
from repro.common.addressing import log2_exact
from repro.common.config import MachineConfig
from repro.common.errors import ConfigError, SimulationError
from repro.common.stats import ratio
from repro.policies.base import ReplacementPolicy
from repro.trace.trace import Trace


@dataclass
class HierarchyStats:
    """Aggregate counters of one hierarchy run."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    upgrades: int = 0
    invalidations: int = 0
    l2_evictions: int = 0
    writebacks: int = 0
    inclusion_victims: int = 0

    @property
    def llc_accesses(self) -> int:
        """Demand accesses that reached the LLC."""
        return self.llc_hits + self.llc_misses

    @property
    def llc_miss_ratio(self) -> float:
        """LLC misses per LLC access."""
        return ratio(self.llc_misses, self.llc_accesses)

    @property
    def mpki_proxy(self) -> float:
        """LLC misses per kilo-access (instruction counts are not modelled,
        so per-access stands in for per-instruction)."""
        return ratio(self.llc_misses * 1000, self.accesses)


class CmpHierarchy:
    """Online CMP simulator: private L1/L2 per core under a shared LLC."""

    def __init__(
        self,
        machine: MachineConfig,
        policy: ReplacementPolicy,
        record_stream: bool = False,
        inclusive: bool = True,
        probe_bus=None,
    ):
        if record_stream and machine.num_cores > 127:
            raise ConfigError(
                "LLC stream recording stores core ids in an int8 column, so a "
                f"recording machine has at most 127 cores, got {machine.num_cores}"
            )
        self.machine = machine
        self.inclusive = inclusive
        # Coherence probe bus (observability only): when set, directory
        # transactions are published via on_coherence(kind, core, block).
        # The checks sit on the upgrade/eviction paths, never on the L1-hit
        # fast path, so an un-probed hierarchy pays nothing per access.
        self._probe_bus = probe_bus
        self.l1s = [
            PrivateCache(machine.l1, name=f"l1.{core}")
            for core in range(machine.num_cores)
        ]
        self.l2s = [
            PrivateCache(machine.l2, name=f"l2.{core}")
            for core in range(machine.num_cores)
        ]
        self.llc = SharedLlc(machine.llc, policy)
        self.directory = Directory(machine.num_cores)
        self.stats = HierarchyStats()
        self._block_shift = log2_exact(machine.block_bytes)
        self._stream_builder: Optional[LlcStreamBuilder] = (
            LlcStreamBuilder() if record_stream else None
        )
        self._dirty_l2_blocks = [set() for __ in range(machine.num_cores)]

    def run(self, trace: Trace) -> HierarchyStats:
        """Drive the whole ``trace`` through the hierarchy.

        One loop over the trace columns with all state bound to locals; per
        access it calls only the LLC policy's hooks, so it is exact for any
        policy. Cache contents, the directory, the dirty sets and
        ``llc.access_count`` stay current access by access; the counters
        are added at the end. The LLC's residency metadata is not kept.

        Raises:
            SimulationError: when the trace uses more threads than cores,
                when the LLC has residency observers or an access probe
                bus, or when the policy picks a way outside the set.
        """
        if trace.num_threads > self.machine.num_cores:
            raise SimulationError(
                f"trace has {trace.num_threads} threads but machine has "
                f"{self.machine.num_cores} cores"
            )
        llc = self.llc
        if llc.observers or getattr(llc, "_probe_bus", None) is not None:
            raise SimulationError(
                "the hierarchy keeps no LLC residency metadata; residency "
                "observers and access probes need an LLC-only replay"
            )
        tids, pcs, addrs, writes = trace.columns()
        shift = self._block_shift
        l1_sets = [l1._sets for l1 in self.l1s]
        l2_sets = [l2._sets for l2 in self.l2s]
        l1_mask, l1_ways = self.l1s[0]._set_mask, self.machine.l1.ways
        l2_mask, l2_ways = self.l2s[0]._set_mask, self.machine.l2.ways
        sharers = self.directory._sharers
        sharers_get = sharers.get
        dirty = self._dirty_l2_blocks
        policy = llc.policy
        on_hit, on_fill = policy.on_hit, policy.on_fill
        select_victim, on_evict = policy.select_victim, policy.on_evict
        where = llc._where
        where_get = where.get
        llc_sets, used = llc._blocks, llc._used
        llc_mask, llc_ways = llc._set_mask, llc.ways
        # A recording keeps the trace position of each LLC access and
        # gathers the stream's columns from the trace at the end.
        positions = array("q")
        record = self._stream_builder is not None
        add_position = positions.append
        inclusive, probe = self.inclusive, self._probe_bus
        count = start = llc.access_count
        l1_hits = l2_hits = llc_hits = evictions = upgrades = 0
        invalidations = l2_evictions = writebacks = victims = 0

        for position, core, pc, addr, wr in zip(
                itertools.count(), tids, pcs, addrs, writes):
            block = addr >> shift
            l1_set = l1_sets[core][block & l1_mask]
            if block in l1_set:
                if l1_set[0] != block:
                    l1_set.remove(block)
                    l1_set.insert(0, block)
                l1_hits += 1
                if not wr:
                    continue
            else:
                l2_set = l2_sets[core][block & l2_mask]
                if block in l2_set:
                    if l2_set[0] != block:
                        l2_set.remove(block)
                        l2_set.insert(0, block)
                    l2_hits += 1
                    l1_set.insert(0, block)
                    if len(l1_set) > l1_ways:
                        l1_set.pop()
                    if not wr:
                        continue
                else:
                    is_write = wr != 0
                    count += 1
                    llc.access_count = count
                    loc = where_get(block)
                    if loc is not None:
                        llc_hits += 1
                        on_hit(loc[0], loc[1], block, pc, core, is_write)
                    else:
                        set_index = block & llc_mask
                        frames = llc_sets[set_index]
                        if used[set_index] < llc_ways:
                            way = frames.index(NO_BLOCK)
                            used[set_index] += 1
                        else:
                            way = select_victim(set_index)
                            if way < 0 or way >= llc_ways:
                                raise SimulationError(
                                    f"policy {policy.name} chose invalid way {way}"
                                )
                            victim = frames[way]
                            on_evict(set_index, way, victim)
                            del where[victim]
                            evictions += 1
                            # Inclusion: the victim leaves every private level.
                            mask = sharers.pop(victim, 0) if inclusive else 0
                            for other in range(mask.bit_length()):
                                if mask >> other & 1:
                                    copies = l1_sets[other][victim & l1_mask]
                                    if victim in copies:
                                        copies.remove(victim)
                                    copies = l2_sets[other][victim & l2_mask]
                                    if victim in copies:  # L1 is within L2
                                        copies.remove(victim)
                                        victims += 1
                                        if probe is not None:
                                            probe.on_coherence(
                                                "inclusion_victim", other, victim)
                                    owned = dirty[other]
                                    if victim in owned:
                                        owned.discard(victim)
                                        writebacks += 1
                                        if probe is not None:
                                            probe.on_coherence(
                                                "writeback", other, victim)
                        frames[way] = block
                        where[block] = (set_index, way)
                        on_fill(set_index, way, block, pc, core, is_write)
                    if record:
                        add_position(position)
                    # Fill L2, then L1 (L1 within L2).
                    l2_set.insert(0, block)
                    if len(l2_set) > l2_ways:
                        l2_victim = l2_set.pop()
                        l2_evictions += 1
                        copies = l1_sets[core][l2_victim & l1_mask]
                        if l2_victim in copies:
                            copies.remove(l2_victim)
                        mask = sharers_get(l2_victim, 0) & ~(1 << core)
                        if mask:
                            sharers[l2_victim] = mask
                        else:
                            sharers.pop(l2_victim, None)
                        owned = dirty[core]
                        if l2_victim in owned:
                            owned.discard(l2_victim)
                            writebacks += 1
                            if probe is not None:
                                probe.on_coherence("writeback", core, l2_victim)
                    l1_set.insert(0, block)
                    if len(l1_set) > l1_ways:
                        l1_set.pop()
                    if not wr:
                        sharers[block] = sharers_get(block, 0) | (1 << core)
                        continue
            # A write leaves the writer the sole (dirty) owner.
            bit = 1 << core
            mask = sharers_get(block, 0) & ~bit
            sharers[block] = bit
            if mask:
                upgrades += 1
                if probe is not None:
                    probe.on_coherence("upgrade", core, block)
                for other in range(mask.bit_length()):
                    if mask >> other & 1:
                        copies = l1_sets[other][block & l1_mask]
                        if block in copies:
                            copies.remove(block)
                            invalidations += 1
                            if probe is not None:
                                probe.on_coherence("invalidation", other, block)
                        copies = l2_sets[other][block & l2_mask]
                        if block in copies:
                            copies.remove(block)
                            invalidations += 1
                            if probe is not None:
                                probe.on_coherence("invalidation", other, block)
                        dirty[other].discard(block)
            dirty[core].add(block)

        if record:
            at = np.asarray(positions)
            self._stream_builder.extend(
                np.asarray(tids)[at], np.asarray(pcs)[at],
                np.asarray(addrs)[at] >> shift, np.asarray(writes)[at] != 0)
        llc_misses = count - start - llc_hits
        stats = self.stats
        stats.accesses += len(tids)
        stats.l1_hits += l1_hits
        stats.l2_hits += l2_hits
        stats.llc_hits += llc_hits
        stats.llc_misses += llc_misses
        stats.upgrades += upgrades
        stats.invalidations += invalidations
        stats.l2_evictions += l2_evictions
        stats.writebacks += writebacks
        stats.inclusion_victims += victims
        llc.hits += llc_hits
        llc.misses += llc_misses
        llc.evictions += evictions
        return stats

    def stream(self):
        """The recorded LLC stream (requires ``record_stream=True``).

        Raises:
            SimulationError: when recording was not enabled.
        """
        if self._stream_builder is None:
            raise SimulationError("hierarchy was built with record_stream=False")
        return self._stream_builder.build()
