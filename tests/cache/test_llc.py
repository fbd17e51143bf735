"""Tests for the shared LLC (repro.cache.llc)."""

import gc

import pytest

from repro.cache.llc import NO_BLOCK, ResidencyObserver, SharedLlc
from repro.common.config import CacheGeometry
from repro.common.errors import SimulationError
from repro.oracle.runner import run_oracle_study
from repro.policies.base import ReplacementPolicy
from repro.policies.lru import LruPolicy
from repro.sim.multipass import record_llc_stream
from tests.conftest import make_trace


class RecordingObserver(ResidencyObserver):
    """Collects every residency callback for assertions."""

    def __init__(self):
        self.started = []
        self.ended = []

    def residency_started(self, block, set_index, fill_ordinal, pc, core):
        self.started.append((block, set_index, fill_ordinal, pc, core))

    def residency_ended(self, block, set_index, fill_ordinal, end_ordinal,
                        fill_pc, fill_core, core_mask, write_mask, hits,
                        other_hits, forced):
        self.ended.append({
            "block": block, "set": set_index, "fill": fill_ordinal,
            "end": end_ordinal, "pc": fill_pc, "core": fill_core,
            "core_mask": core_mask, "write_mask": write_mask,
            "hits": hits, "other_hits": other_hits, "forced": forced,
        })


def make_llc(sets=2, ways=2, observers=()):
    return SharedLlc(CacheGeometry(sets * ways * 64, ways), LruPolicy(),
                     observers=observers)


class TestHitMiss:
    def test_first_access_misses(self):
        llc = make_llc()
        hit, evicted = llc.access(0, 0x1, 0, False)
        assert not hit
        assert evicted == NO_BLOCK
        assert llc.misses == 1

    def test_second_access_hits(self):
        llc = make_llc()
        llc.access(0, 0x1, 0, False)
        hit, __ = llc.access(0, 0x2, 0, False)
        assert hit
        assert llc.hits == 1

    def test_access_count_increments(self):
        llc = make_llc()
        for i in range(5):
            llc.access(0, 0, i, False)
        assert llc.access_count == 5

    def test_eviction_returns_victim(self):
        llc = make_llc(sets=1, ways=2)
        llc.access(0, 0, 0, False)
        llc.access(0, 0, 1, False)
        __, evicted = llc.access(0, 0, 2, False)
        assert evicted == 0  # LRU victim
        assert llc.evictions == 1
        assert not llc.contains(0)

    def test_occupancy_and_resident_blocks(self):
        llc = make_llc()
        llc.access(0, 0, 0, False)
        llc.access(0, 0, 1, False)
        assert llc.occupancy() == 2
        assert sorted(llc.resident_blocks()) == [0, 1]

    def test_invalid_policy_way_rejected(self):
        class BrokenPolicy(LruPolicy):
            def select_victim(self, set_index):
                return 99

        llc = SharedLlc(CacheGeometry(128, 2), BrokenPolicy())
        llc.access(0, 0, 0, False)
        llc.access(0, 0, 1, False)
        with pytest.raises(SimulationError):
            llc.access(0, 0, 2, False)


class TestResidencyMetadata:
    def test_single_core_private_residency(self):
        observer = RecordingObserver()
        llc = make_llc(sets=1, ways=1, observers=(observer,))
        llc.access(0, 0x10, 0, False)   # fill block 0
        llc.access(0, 0x11, 0, False)   # hit
        llc.access(0, 0x12, 1, False)   # evicts block 0
        record = observer.ended[0]
        assert record["block"] == 0
        assert record["fill"] == 1
        assert record["end"] == 3
        assert record["pc"] == 0x10
        assert record["core_mask"] == 0b1
        assert record["hits"] == 1
        assert record["other_hits"] == 0
        assert not record["forced"]

    def test_shared_residency_masks(self):
        observer = RecordingObserver()
        llc = make_llc(sets=1, ways=1, observers=(observer,))
        llc.access(0, 0, 0, False)
        llc.access(1, 0, 0, False)      # cross-core hit
        llc.access(2, 0, 0, True)       # cross-core write hit
        llc.access(0, 0, 1, False)      # evict
        record = observer.ended[0]
        assert record["core_mask"] == 0b111
        assert record["write_mask"] == 0b100
        assert record["hits"] == 2
        assert record["other_hits"] == 2

    def test_write_fill_sets_write_mask(self):
        observer = RecordingObserver()
        llc = make_llc(sets=1, ways=1, observers=(observer,))
        llc.access(3, 0, 0, True)
        llc.flush_residencies()
        assert observer.ended[0]["write_mask"] == 0b1000

    def test_same_core_hits_not_counted_as_other(self):
        observer = RecordingObserver()
        llc = make_llc(sets=1, ways=1, observers=(observer,))
        llc.access(1, 0, 0, False)
        llc.access(1, 0, 0, False)
        llc.access(1, 0, 0, False)
        llc.flush_residencies()
        record = observer.ended[0]
        assert record["hits"] == 2
        assert record["other_hits"] == 0
        assert record["core_mask"] == 0b10

    def test_flush_marks_forced(self):
        observer = RecordingObserver()
        llc = make_llc(observers=(observer,))
        llc.access(0, 0, 0, False)
        llc.flush_residencies()
        assert observer.ended[0]["forced"]

    def test_flush_covers_every_live_residency(self):
        observer = RecordingObserver()
        llc = make_llc(sets=2, ways=2, observers=(observer,))
        for block in range(4):
            llc.access(0, 0, block, False)
        llc.flush_residencies()
        assert len(observer.ended) == 4

    def test_refill_resets_metadata(self):
        observer = RecordingObserver()
        llc = make_llc(sets=1, ways=1, observers=(observer,))
        llc.access(0, 0x1, 0, False)
        llc.access(1, 0x2, 0, True)     # shared write hit
        llc.access(0, 0x3, 1, False)    # evict 0
        llc.access(0, 0x4, 0, False)    # refill 0, evict 1
        llc.flush_residencies()
        second_residency = observer.ended[-1]
        assert second_residency["block"] == 0
        assert second_residency["core_mask"] == 0b1
        assert second_residency["write_mask"] == 0
        assert second_residency["hits"] == 0

    def test_started_fires_on_every_fill(self):
        observer = RecordingObserver()
        llc = make_llc(sets=1, ways=1, observers=(observer,))
        llc.access(0, 0x7, 5, False)
        llc.access(0, 0x7, 5, False)    # hit, no started event
        llc.access(1, 0x8, 6, True)     # new fill
        assert observer.started == [(5, 0, 1, 0x7, 0), (6, 0, 3, 0x8, 1)]

    def test_observer_count_matches_fills(self):
        observer = RecordingObserver()
        llc = make_llc(sets=2, ways=2, observers=(observer,))
        for i in range(20):
            llc.access(0, 0, i % 6, False)
        llc.flush_residencies()
        assert len(observer.started) == llc.misses
        assert len(observer.ended) == llc.misses


class TestObserverManagement:
    def test_add_observer(self):
        llc = make_llc()
        observer = RecordingObserver()
        llc.add_observer(observer)
        llc.access(0, 0, 0, False)
        assert len(observer.started) == 1

    def test_base_observer_started_is_noop(self):
        # The base class must tolerate being attached directly.
        llc = make_llc(observers=(ResidencyObserver(),))
        llc.access(0, 0, 0, False)  # no exception from residency_started
        with pytest.raises(NotImplementedError):
            llc.flush_residencies()


class TestReferenceCounting:
    def test_llc_models_leave_no_cyclic_garbage(self, tiny_machine):
        # The policy's back-reference to its LLC must not form a cycle, so
        # every recording and model replay frees its LLC by reference
        # count instead of leaving it to the cyclic collector.
        trace = make_trace([
            (i % 2, 0x400 + (i % 6) * 0x1C, 64 * ((i * 5) % 90), i % 7 == 0)
            for i in range(1500)
        ])
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            stream, __ = record_llc_stream(trace, tiny_machine)
            run_oracle_study(stream, tiny_machine.llc, fastpath=False)
            gc.collect()
            leaked = [o for o in gc.garbage if isinstance(o, SharedLlc)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == []
