"""Per-access reference for :meth:`CmpHierarchy.run`, and the differential check.

``CmpHierarchy.run`` is one fused loop over the trace with every level's
state bound to locals. :func:`reference_run` drives the same hierarchy
object one access at a time through the component methods instead:
:class:`PrivateCache` ``access``/``fill``/``invalidate``, the
:class:`Directory` updates, :meth:`SharedLlc.access` and
:meth:`LlcStreamBuilder.append`. :func:`assert_fused_matches_reference` runs
both on fresh hierarchies and compares everything they leave behind.
"""

import dataclasses

from repro.cache.hierarchy import CmpHierarchy
from repro.cache.llc import NO_BLOCK
from repro.policies.registry import make_policy
from tests.conftest import make_trace


def reference_run(hierarchy, trace):
    """Drive ``trace`` through ``hierarchy`` one access at a time."""
    tids, pcs, addrs, writes = trace.columns()
    shift = hierarchy._block_shift
    for i in range(len(tids)):
        _access(hierarchy, tids[i], pcs[i], addrs[i] >> shift, writes[i] != 0)
    return hierarchy.stats


def _access(h, core, pc, block, is_write):
    stats = h.stats
    stats.accesses += 1
    l1 = h.l1s[core]
    if l1.access(block):
        stats.l1_hits += 1
    else:
        l2 = h.l2s[core]
        if l2.access(block):
            stats.l2_hits += 1
            l1.fill(block)
        else:
            _llc_access(h, core, pc, block, is_write)
    if is_write:
        _acquire_exclusive(h, core, block)


def _llc_access(h, core, pc, block, is_write):
    stats = h.stats
    hit, evicted = h.llc.access(core, pc, block, is_write)
    if hit:
        stats.llc_hits += 1
    else:
        stats.llc_misses += 1
    if h._stream_builder is not None:
        h._stream_builder.append(core, pc, block, is_write)
    if evicted != NO_BLOCK and h.inclusive:
        _back_invalidate(h, evicted)
    # Fill the private levels (L2 first; inclusion L1 within L2).
    l2_victim = h.l2s[core].fill(block)
    if l2_victim is not None:
        stats.l2_evictions += 1
        h.l1s[core].invalidate(l2_victim)
        h.directory.remove_sharer(l2_victim, core)
        dirty = h._dirty_l2_blocks[core]
        if l2_victim in dirty:
            dirty.discard(l2_victim)
            stats.writebacks += 1
            _publish(h, "writeback", core, l2_victim)
    h.l1s[core].fill(block)
    h.directory.add_sharer(block, core)


def _acquire_exclusive(h, core, block):
    others = h.directory.set_exclusive(block, core)
    if others:
        h.stats.upgrades += 1
        _publish(h, "upgrade", core, block)
        for other in h.directory.iter_cores(others):
            if h.l1s[other].invalidate(block):
                h.stats.invalidations += 1
                _publish(h, "invalidation", other, block)
            if h.l2s[other].invalidate(block):
                h.stats.invalidations += 1
                _publish(h, "invalidation", other, block)
            h._dirty_l2_blocks[other].discard(block)
    h._dirty_l2_blocks[core].add(block)


def _back_invalidate(h, block):
    mask = h.directory.clear_block(block)
    for core in h.directory.iter_cores(mask):
        invalidated = h.l1s[core].invalidate(block)
        invalidated = h.l2s[core].invalidate(block) or invalidated
        if invalidated:
            h.stats.inclusion_victims += 1
            _publish(h, "inclusion_victim", core, block)
        if block in h._dirty_l2_blocks[core]:
            h._dirty_l2_blocks[core].discard(block)
            h.stats.writebacks += 1
            _publish(h, "writeback", core, block)


def _publish(h, kind, core, block):
    if h._probe_bus is not None:
        h._probe_bus.on_coherence(kind, core, block)


class CoherenceLog:
    """Probe bus that keeps every coherence event in order."""

    def __init__(self):
        self.events = []

    def on_coherence(self, kind, core, block):
        self.events.append((kind, core, block))


def hierarchy_state(hierarchy):
    """Everything a run leaves behind, except the LLC residency metadata
    that the fused loop does not keep."""
    llc = hierarchy.llc
    return {
        "stats": dataclasses.asdict(hierarchy.stats),
        "stream": hierarchy.stream().columns(),
        "l1": [c._sets for c in hierarchy.l1s],
        "l2": [c._sets for c in hierarchy.l2s],
        "directory": sorted(hierarchy.directory.entries()),
        "dirty": hierarchy._dirty_l2_blocks,
        "llc": (llc._blocks, llc._where, llc._used, llc.access_count,
                llc.hits, llc.misses, llc.evictions),
        "policy": llc.policy.introspect(),
        "events": hierarchy._probe_bus.events,
    }


def assert_fused_matches_reference(machine, accesses, policy_name, seed,
                                   inclusive):
    """Run ``accesses`` through the fused loop and through the reference
    chain, on fresh hierarchies, and assert identical outcomes."""
    trace = make_trace([
        (tid % machine.num_cores, pc, addr, is_write)
        for tid, pc, addr, is_write in accesses
    ])
    states = []
    for drive in (CmpHierarchy.run, reference_run):
        hierarchy = CmpHierarchy(
            machine, make_policy(policy_name, seed=seed), record_stream=True,
            inclusive=inclusive, probe_bus=CoherenceLog(),
        )
        drive(hierarchy, trace)
        states.append(hierarchy_state(hierarchy))
    fused, reference = states
    for key in reference:
        assert fused[key] == reference[key], key
