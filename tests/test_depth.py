"""Additional depth tests across layers (behaviours not covered elsewhere)."""

import pytest

from repro.cache.hierarchy import CmpHierarchy
from repro.cache.llc import SharedLlc
from repro.common.config import CacheGeometry
from repro.common.rng import DeterministicRng
from repro.policies.lru import LruPolicy
from repro.policies.rrip import BrripPolicy
from repro.workloads import kernels
from repro.workloads.layout import Region
from tests.conftest import make_trace
from tests.workloads.kernels_reference import ReadableStreams

B = 64


class TestKernelDetails:
    def test_task_queue_write_fraction_zero(self):
        streams = ReadableStreams(2)
        kernels.emit_task_queue(
            streams, DeterministicRng(1), Region("q", 0, 2),
            Region("t", 100, 16), pc_queue=1, pc_task=2, num_tasks=20,
            task_blocks=2, task_write_fraction=0.0,
        )
        task_writes = [
            w for s in streams for pc, __a, w in s if pc == 2 and w
        ]
        assert not task_writes

    def test_task_queue_write_fraction_one(self):
        streams = ReadableStreams(2)
        kernels.emit_task_queue(
            streams, DeterministicRng(1), Region("q", 0, 2),
            Region("t", 100, 16), pc_queue=1, pc_task=2, num_tasks=10,
            task_blocks=2, task_write_fraction=1.0,
        )
        task_accesses = [
            (a, w) for s in streams for pc, a, w in s if pc == 2
        ]
        # Every task block gets a read followed by a write.
        assert sum(1 for __, w in task_accesses if w) == len(task_accesses) // 2

    def test_reduction_with_three_threads(self):
        streams = ReadableStreams(3)
        partials = [Region(f"p{i}", i * 10, 2) for i in range(3)]
        kernels.emit_reduction(streams, partials, 1, 2)
        # Tree: stride 1 pairs (0,1); stride 2 pairs (0,2). Thread 0 reads
        # both other partials eventually.
        reads0 = {a // B for pc, a, w in streams[0] if pc == 2 and not w}
        assert {10, 11} <= reads0
        assert {20, 21} <= reads0

    def test_migratory_single_thread_falls_back(self):
        streams = ReadableStreams(1)
        kernels.emit_migratory(
            streams, DeterministicRng(2), Region("m", 0, 8), pc=1,
            items=3, hops=2,
        )
        assert streams[0]  # single-thread run still emits RMW traffic

    def test_halo_grid_smaller_than_threads(self):
        # 2 rows for 4 threads: threads beyond the rows contribute nothing.
        streams = ReadableStreams(4)
        kernels.emit_halo_exchange(streams, Region("g", 0, 4), row_blocks=2,
                                   pc_compute=1, pc_halo=2)
        assert streams[0] and streams[1]
        assert not streams[2] and not streams[3]


class TestPolicyDetails:
    def test_brrip_insertion_statistics(self):
        policy = BrripPolicy(seed=5, throttle=32)
        samples = [policy.insertion_rrpv(0) for __ in range(3200)]
        long_insertions = sum(1 for value in samples if value == 2)
        # ~1/32 of fills go long; allow generous slack.
        assert 40 < long_insertions < 250

    def test_ship_signature_stable(self):
        from repro.policies.ship import ShipPolicy

        policy = ShipPolicy()
        assert policy._hash_pc(0x400123) == policy._hash_pc(0x400123)

    def test_opt_tie_break_is_deterministic(self):
        from repro.policies.opt import BeladyOptPolicy, compute_next_use
        from repro.sim.engine import LlcOnlySimulator
        from tests.conftest import read_stream

        blocks = [0, 1, 2, 3]  # all dead after first touch
        stream = read_stream(blocks)

        def misses():
            policy = BeladyOptPolicy(compute_next_use(stream.blocks))
            return LlcOnlySimulator(CacheGeometry(2 * 64, 2), policy).run(
                stream
            ).misses

        assert misses() == misses() == 4


class TestHierarchyDetails:
    def test_l1_eviction_keeps_block_in_l2(self, tiny_machine):
        # Fill one L1 set (2 sets x 4 ways) past capacity with same-set
        # blocks; evicted L1 blocks must remain in the bigger L2.
        blocks = [0, 2, 4, 6, 8]
        accesses = [(0, 0x1, b * B, False) for b in blocks]
        hierarchy = CmpHierarchy(tiny_machine, LruPolicy())
        hierarchy.run(make_trace(accesses))
        l1 = set(hierarchy.l1s[0].resident_blocks())
        l2 = set(hierarchy.l2s[0].resident_blocks())
        assert len(l1) < len(blocks)
        assert set(blocks) <= l2

    def test_directory_cleared_after_llc_eviction(self, tiny_machine):
        accesses = [(0, 0x1, 0, False)]
        accesses += [(1, 0x2, (8 * i) * B, False) for i in range(1, 9)]
        hierarchy = CmpHierarchy(tiny_machine, LruPolicy())
        hierarchy.run(make_trace(accesses))
        assert not hierarchy.directory.is_cached(0)

    def test_upgrade_then_reread_pattern_counts(self, tiny_machine):
        """The classic RW-sharing ping-pong at the stats level."""
        accesses = []
        for round_ in range(5):
            accesses.append((0, 0x1, 0, True))
            accesses.append((1, 0x2, 0, False))
        hierarchy = CmpHierarchy(tiny_machine, LruPolicy())
        hierarchy.run(make_trace(accesses))
        stats = hierarchy.stats
        # Each write after core 1 has read invalidates core 1's copy, so
        # every read of core 1 (except none) reaches the LLC.
        assert stats.llc_accesses >= 6
        assert stats.upgrades == 4


class TestCharacterizationDetails:
    def test_report_respects_policy_choice(self):
        from repro.characterization.report import characterize_stream
        from tests.conftest import read_stream

        blocks = [b % 6 for b in range(300)]
        stream = read_stream(blocks)
        geometry = CacheGeometry(4 * 64, 4)
        lru = characterize_stream(stream, geometry, "lru")
        lip = characterize_stream(stream, geometry, "lip")
        assert lru.result.policy == "lru"
        assert lip.result.policy == "lip"
        assert lru.breakdown.residencies != lip.breakdown.residencies

    def test_degree_hits_sum_to_total_hits(self):
        from repro.characterization.hits import SharingClassifier
        from repro.sim.engine import LlcOnlySimulator
        from tests.conftest import make_stream

        rng = DeterministicRng(4)
        accesses = [
            (rng.randrange(3), 0, rng.randrange(10), rng.random() < 0.2)
            for __ in range(1000)
        ]
        classifier = SharingClassifier()
        LlcOnlySimulator(
            CacheGeometry(2 * 2 * 64, 2), LruPolicy(), observers=(classifier,)
        ).run(make_stream(accesses))
        breakdown = classifier.breakdown
        assert sum(breakdown.degree_hits.values()) == breakdown.hits
        assert sum(breakdown.degree_residencies.values()) == breakdown.residencies
