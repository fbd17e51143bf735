"""Tests for the full CMP hierarchy (repro.cache.hierarchy)."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.hierarchy import CmpHierarchy
from repro.cache.llc import ResidencyObserver
from repro.common.config import CacheGeometry, MachineConfig
from repro.common.errors import ConfigError, SimulationError
from repro.policies.lru import LruPolicy
from tests.cache.hierarchy_reference import assert_fused_matches_reference
from tests.conftest import QUAD_MACHINE, TINY_MACHINE, make_trace
from tests.strategies import mixed_access_lists, policy_configs

B = 64  # block size


def run_hierarchy(machine, accesses, record_stream=False):
    hierarchy = CmpHierarchy(machine, LruPolicy(), record_stream=record_stream)
    hierarchy.run(make_trace(accesses))
    return hierarchy


class TestBasicPaths:
    def test_first_access_goes_to_llc(self, tiny_machine):
        hierarchy = run_hierarchy(tiny_machine, [(0, 0x1, 0, False)])
        stats = hierarchy.stats
        assert stats.accesses == 1
        assert stats.l1_hits == 0
        assert stats.l2_hits == 0
        assert stats.llc_misses == 1

    def test_repeat_access_hits_l1(self, tiny_machine):
        hierarchy = run_hierarchy(
            tiny_machine, [(0, 0x1, 0, False), (0, 0x2, 0, False)]
        )
        assert hierarchy.stats.l1_hits == 1
        assert hierarchy.stats.llc_accesses == 1

    def test_l2_hit_after_l1_eviction(self, tiny_machine):
        # L1 is 2 sets x 4 ways; touching 5 blocks of one L1 set evicts the
        # first, which still hits in the larger L2.
        blocks = [0, 2, 4, 6, 8]  # all map to L1 set 0
        accesses = [(0, 0x1, b * B, False) for b in blocks]
        accesses.append((0, 0x2, 0, False))  # L1 miss, L2 hit
        hierarchy = run_hierarchy(tiny_machine, accesses)
        assert hierarchy.stats.l2_hits == 1
        assert hierarchy.stats.llc_accesses == 5

    def test_hit_counters_partition_accesses(self, quad_machine):
        import random

        rng = random.Random(0)
        accesses = [
            (rng.randrange(4), 0x1, rng.randrange(64) * B, rng.random() < 0.3)
            for __ in range(2000)
        ]
        stats = run_hierarchy(quad_machine, accesses).stats
        assert (
            stats.l1_hits + stats.l2_hits + stats.llc_hits + stats.llc_misses
            == stats.accesses
        )

    def test_rejects_excess_threads(self, tiny_machine):
        trace = make_trace([(5, 0, 0, False)])
        hierarchy = CmpHierarchy(tiny_machine, LruPolicy())
        with pytest.raises(SimulationError):
            hierarchy.run(trace)


class TestCoherence:
    def test_write_invalidates_other_private_copies(self, tiny_machine):
        accesses = [
            (0, 0x1, 0, False),   # core 0 caches block 0
            (1, 0x2, 0, False),   # core 1 caches block 0 (LLC hit)
            (0, 0x3, 0, True),    # core 0 writes: upgrade, invalidate core 1
            (1, 0x4, 0, False),   # core 1 must go back to the LLC
        ]
        hierarchy = run_hierarchy(tiny_machine, accesses)
        stats = hierarchy.stats
        assert stats.upgrades == 1
        assert stats.invalidations >= 1
        assert stats.llc_accesses == 3  # fill, core-1 read, core-1 re-read
        assert stats.llc_hits == 2

    def test_read_sharing_keeps_both_copies(self, tiny_machine):
        accesses = [
            (0, 0x1, 0, False),
            (1, 0x2, 0, False),
            (0, 0x3, 0, False),   # still in core 0's L1
            (1, 0x4, 0, False),   # still in core 1's L1
        ]
        stats = run_hierarchy(tiny_machine, accesses).stats
        assert stats.llc_accesses == 2
        assert stats.l1_hits == 2
        assert stats.upgrades == 0

    def test_write_by_only_sharer_is_not_an_upgrade(self, tiny_machine):
        accesses = [(0, 0x1, 0, False), (0, 0x2, 0, True)]
        stats = run_hierarchy(tiny_machine, accesses).stats
        assert stats.upgrades == 0

    def test_directory_tracks_sharers(self, tiny_machine):
        hierarchy = run_hierarchy(
            tiny_machine, [(0, 0, 0, False), (1, 0, 0, False)]
        )
        assert hierarchy.directory.sharers(0) == 0b11

    def test_writeback_counted_on_dirty_l2_eviction(self, tiny_machine):
        # Dirty block 0, then stream enough same-L2-set blocks to evict it.
        accesses = [(0, 0x1, 0, True)]
        accesses += [(0, 0x2, (4 * i) * B, False) for i in range(1, 6)]
        stats = run_hierarchy(tiny_machine, accesses).stats
        assert stats.writebacks >= 1


class TestInclusion:
    def test_back_invalidation_on_llc_eviction(self, tiny_machine):
        # LLC has 8 sets x 8 ways; overflow one LLC set (blocks stride 8)
        # while keeping block 0 in core 0's L1/L2.
        accesses = [(0, 0x1, 0, False)]
        accesses += [(1, 0x2, (8 * i) * B, False) for i in range(1, 9)]
        hierarchy = run_hierarchy(tiny_machine, accesses)
        assert hierarchy.stats.inclusion_victims >= 1
        # Block 0 was evicted from the LLC, so core 0's private copy died.
        assert not hierarchy.l1s[0].contains(0)
        assert not hierarchy.l2s[0].contains(0)

    def test_l1_subset_of_l2(self, quad_machine):
        import random

        rng = random.Random(1)
        accesses = [
            (rng.randrange(4), 0x1, rng.randrange(128) * B, rng.random() < 0.2)
            for __ in range(3000)
        ]
        hierarchy = run_hierarchy(quad_machine, accesses)
        for core in range(4):
            l1_blocks = set(hierarchy.l1s[core].resident_blocks())
            l2_blocks = set(hierarchy.l2s[core].resident_blocks())
            assert l1_blocks <= l2_blocks

    def test_private_subset_of_llc(self, quad_machine):
        import random

        rng = random.Random(2)
        accesses = [
            (rng.randrange(4), 0x1, rng.randrange(256) * B, rng.random() < 0.2)
            for __ in range(3000)
        ]
        hierarchy = run_hierarchy(quad_machine, accesses)
        llc_blocks = set(hierarchy.llc.resident_blocks())
        for core in range(4):
            assert set(hierarchy.l2s[core].resident_blocks()) <= llc_blocks

    def test_directory_matches_private_contents(self, quad_machine):
        import random

        rng = random.Random(3)
        accesses = [
            (rng.randrange(4), 0x1, rng.randrange(96) * B, rng.random() < 0.3)
            for __ in range(3000)
        ]
        hierarchy = run_hierarchy(quad_machine, accesses)
        for block, mask in hierarchy.directory.entries():
            for core in hierarchy.directory.iter_cores(mask):
                assert hierarchy.l2s[core].contains(block)


class TestStreamRecording:
    def test_stream_length_equals_llc_accesses(self, quad_machine):
        import random

        rng = random.Random(4)
        accesses = [
            (rng.randrange(4), 0x1, rng.randrange(200) * B, rng.random() < 0.2)
            for __ in range(2000)
        ]
        hierarchy = run_hierarchy(quad_machine, accesses, record_stream=True)
        stream = hierarchy.stream()
        assert len(stream) == hierarchy.stats.llc_accesses

    def test_stream_records_block_addresses(self, tiny_machine):
        hierarchy = run_hierarchy(
            tiny_machine, [(1, 0x9, 5 * B + 3, True)], record_stream=True
        )
        access = hierarchy.stream()[0]
        assert access.core == 1
        assert access.pc == 0x9
        assert access.block == 5
        assert access.is_write

    def test_runs_append_to_one_stream(self, quad_machine):
        import random

        rng = random.Random(9)
        accesses = [
            (rng.randrange(4), rng.randrange(3), rng.randrange(300) * B,
             rng.random() < 0.3)
            for __ in range(1500)
        ]
        whole = run_hierarchy(quad_machine, accesses, record_stream=True)
        split = CmpHierarchy(quad_machine, LruPolicy(), record_stream=True)
        split.run(make_trace(accesses[:700]))
        split.run(make_trace(accesses[700:]))
        assert split.stream().columns() == whole.stream().columns()

    def test_stream_requires_recording_enabled(self, tiny_machine):
        hierarchy = CmpHierarchy(tiny_machine, LruPolicy())
        with pytest.raises(SimulationError):
            hierarchy.stream()


class TestStatsProperties:
    def test_miss_ratio(self, tiny_machine):
        stats = run_hierarchy(
            tiny_machine, [(0, 0, 0, False), (0, 0, B, False)]
        ).stats
        assert stats.llc_miss_ratio == 1.0
        assert stats.mpki_proxy == 1000.0

    def test_zero_accesses(self, tiny_machine):
        hierarchy = CmpHierarchy(tiny_machine, LruPolicy())
        assert hierarchy.stats.llc_miss_ratio == 0.0


class TestNonInclusive:
    def test_private_copies_survive_llc_eviction(self, tiny_machine):
        accesses = [(0, 0x1, 0, False)]
        accesses += [(1, 0x2, (8 * i) * B, False) for i in range(1, 9)]
        hierarchy = CmpHierarchy(tiny_machine, LruPolicy(), inclusive=False)
        hierarchy.run(make_trace(accesses))
        assert hierarchy.stats.inclusion_victims == 0
        # Block 0 left the LLC but core 0 still holds its private copy.
        assert not hierarchy.llc.contains(0)
        assert hierarchy.l2s[0].contains(0)

    def test_non_inclusive_never_slower_on_private_hits(self, quad_machine):
        import random

        rng = random.Random(6)
        accesses = [
            (rng.randrange(4), 0x1, rng.randrange(256) * B, rng.random() < 0.2)
            for __ in range(4000)
        ]
        inclusive = CmpHierarchy(quad_machine, LruPolicy(), inclusive=True)
        inclusive.run(make_trace(accesses))
        non_inclusive = CmpHierarchy(quad_machine, LruPolicy(), inclusive=False)
        non_inclusive.run(make_trace(accesses))
        # Without back-invalidation the private levels can only hit more.
        private_hits_inclusive = (
            inclusive.stats.l1_hits + inclusive.stats.l2_hits
        )
        private_hits_non_inclusive = (
            non_inclusive.stats.l1_hits + non_inclusive.stats.l2_hits
        )
        assert private_hits_non_inclusive >= private_hits_inclusive

    def test_default_is_inclusive(self, tiny_machine):
        assert CmpHierarchy(tiny_machine, LruPolicy()).inclusive


class TestFusedLoop:
    """``run`` is one fused loop; the per-access component chain of
    :mod:`tests.cache.hierarchy_reference` is its reference."""

    @given(
        accesses=mixed_access_lists(),
        config=policy_configs(),
        machine=st.sampled_from([TINY_MACHINE, QUAD_MACHINE]),
        inclusive=st.booleans(),
    )
    def test_matches_per_access_reference(self, accesses, config, machine,
                                          inclusive):
        name, seed = config
        assert_fused_matches_reference(machine, accesses, name, seed,
                                       inclusive)

    def test_rejects_llc_residency_observers(self, tiny_machine):
        hierarchy = CmpHierarchy(tiny_machine, LruPolicy())
        hierarchy.llc.add_observer(ResidencyObserver())
        with pytest.raises(SimulationError, match="observers"):
            hierarchy.run(make_trace([(0, 0, 0, False)]))
        assert hierarchy.stats.accesses == 0

    def test_rejects_llc_access_probe_bus(self, tiny_machine):
        hierarchy = CmpHierarchy(tiny_machine, LruPolicy())
        hierarchy.llc.attach_probe_bus(object())
        with pytest.raises(SimulationError, match="probes"):
            hierarchy.run(make_trace([(0, 0, 0, False)]))
        assert hierarchy.llc.access_count == 0


def _wide_machine(num_cores):
    return MachineConfig(
        name="wide", num_cores=num_cores,
        l1=CacheGeometry(512, 8), l2=CacheGeometry(1024, 8),
        llc=CacheGeometry(512 * 1024, 16),
    )


class TestWideMachines:
    def test_recording_rejects_core_ids_beyond_int8(self):
        with pytest.raises(ConfigError, match="int8"):
            CmpHierarchy(_wide_machine(128), LruPolicy(), record_stream=True)

    def test_recording_accepts_127_cores(self):
        hierarchy = CmpHierarchy(_wide_machine(127), LruPolicy(),
                                 record_stream=True)
        hierarchy.run(make_trace([(126, 0x1, 0, True)]))
        assert hierarchy.stream()[0].core == 126

    def test_wide_machine_runs_without_recording(self):
        hierarchy = CmpHierarchy(_wide_machine(130), LruPolicy())
        hierarchy.run(make_trace([(129, 0x1, 0, False)]))
        assert hierarchy.stats.llc_misses == 1
