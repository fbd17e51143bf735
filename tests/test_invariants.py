"""Property-based invariants of the simulation stack.

Four families of laws that must hold for *every* input, not just the
fixtures the unit tests happen to pick:

* conservation — hits and misses partition accesses at every cache level,
  and the hierarchy's level counters telescope (``accesses = l1_hits +
  l2_hits + llc_accesses``);
* decomposition — per-thread access counters sum to the trace totals, and
  the shared-block breakdown never exceeds what it decomposes;
* LRU inclusion — a strictly larger LRU cache (same sets, more ways)
  contains the smaller one, so hits are monotone non-decreasing, and
  Belady's OPT never misses more than LRU;
* sampling convergence — a set-sampled replay's miss ratio approaches the
  full simulation's as the sample grows, and equals it at ratio 1.

Randomised cases come from Hypothesis with ``derandomize=True`` so CI is
reproducible; the ``slow`` marker gates a high-iteration fuzz pass meant
for the nightly job (``pytest -m slow``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.hierarchy import CmpHierarchy
from repro.common.config import CacheGeometry
from repro.policies.registry import make_policy
from repro.sim.multipass import run_opt, run_policy_on_stream
from repro.sim.sampling import SampledLlcSimulator
from repro.trace.stats import compute_trace_statistics
from tests.cache.hierarchy_reference import assert_fused_matches_reference
from tests.conftest import QUAD_MACHINE, TINY_MACHINE, make_stream, make_trace
from tests.strategies import (
    access_lists as accesses_strategy,
    mixed_access_lists,
    policy_configs,
    policy_names,
    stream_lists as stream_strategy,
)


class TestConservation:
    """Hits + misses == accesses, at every level, for any input."""

    @given(accesses=accesses_strategy())
    def test_hierarchy_counters_telescope(self, accesses):
        stats = CmpHierarchy(TINY_MACHINE, make_policy("lru")).run(
            make_trace(accesses)
        )
        assert stats.accesses == len(accesses)
        assert stats.accesses == (
            stats.l1_hits + stats.l2_hits + stats.llc_accesses
        )
        assert stats.llc_accesses == stats.llc_hits + stats.llc_misses
        assert 0.0 <= stats.llc_miss_ratio <= 1.0

    @given(
        accesses=stream_strategy(),
        policy=policy_names(),
    )
    def test_llc_replay_partitions_accesses(self, accesses, policy):
        result = run_policy_on_stream(
            make_stream(accesses), CacheGeometry(2048, 4, 64), policy, seed=7
        )
        assert result.accesses == len(accesses)
        assert result.hits + result.misses == result.accesses
        assert 0.0 <= result.miss_ratio <= 1.0


class TestDecomposition:
    """Per-thread and shared-block counters sum back to the totals."""

    @given(accesses=accesses_strategy(num_threads=4))
    def test_per_thread_accesses_sum_to_total(self, accesses):
        stats = compute_trace_statistics(make_trace(accesses))
        assert sum(stats.per_thread_accesses) == stats.num_accesses
        assert stats.num_accesses == len(accesses)
        assert len(stats.per_thread_accesses) == stats.num_threads

    @given(accesses=accesses_strategy(num_threads=4))
    def test_shared_breakdown_is_bounded(self, accesses):
        stats = compute_trace_statistics(make_trace(accesses))
        assert 0 <= stats.shared_blocks <= stats.footprint_blocks
        assert stats.accesses_to_shared <= stats.num_accesses
        assert stats.num_writes <= stats.num_accesses
        if stats.num_threads == 1:
            assert stats.shared_blocks == 0


class TestLruInclusion:
    """LRU caches nest: same sets + more ways can only add hits."""

    @given(accesses=stream_strategy(max_block=128))
    def test_hits_monotone_in_ways(self, accesses):
        stream = make_stream(accesses)
        hits = []
        for ways in (2, 4, 8):
            # Same 8 sets throughout; capacity grows with ways only.
            geometry = CacheGeometry(8 * ways * 64, ways, 64)
            hits.append(
                run_policy_on_stream(stream, geometry, "lru", seed=0).hits
            )
        assert hits == sorted(hits)

    @given(accesses=stream_strategy(max_block=96))
    def test_opt_never_misses_more_than_lru(self, accesses):
        stream = make_stream(accesses)
        geometry = CacheGeometry(2048, 4, 64)
        lru = run_policy_on_stream(stream, geometry, "lru", seed=0)
        opt = run_opt(stream, geometry)
        assert opt.misses <= lru.misses


class TestSamplingConvergence:
    """Set-sampled miss ratios estimate the full simulation's."""

    def _workload_stream(self, machine, name="water", accesses=20_000):
        from repro.sim.experiment import ExperimentContext

        context = ExperimentContext(
            machine, target_accesses=accesses, seed=5, workloads=[name],
        )
        return context.artifacts(name).stream

    def test_ratio_one_is_exact(self, tiny_machine):
        stream = self._workload_stream(tiny_machine, accesses=5_000)
        geometry = tiny_machine.llc
        full = run_policy_on_stream(stream, geometry, "lru", seed=0)
        sampled = SampledLlcSimulator(
            geometry, make_policy("lru"), sample_ratio=1
        ).run(stream)
        assert sampled.sampled_accesses == full.accesses
        assert sampled.sampled_misses == full.misses
        assert sampled.miss_ratio == full.miss_ratio

    def test_sampled_ratio_converges(self, quad_machine):
        # 16-set LLC sampled 1-in-2 and 1-in-4; fixed seed, no flakes.
        stream = self._workload_stream(quad_machine)
        geometry = quad_machine.llc
        full = run_policy_on_stream(stream, geometry, "lru", seed=0)
        errors = []
        for ratio in (4, 2):
            sampled = SampledLlcSimulator(
                geometry, make_policy("lru"), sample_ratio=ratio
            ).run(stream)
            assert sampled.sampled_accesses > 0
            errors.append(abs(sampled.miss_ratio - full.miss_ratio))
        assert errors[-1] <= 0.1  # the densest sample is close...
        assert all(err <= 0.2 for err in errors)  # ...and none is wild

    def test_offsets_partition_the_stream(self, quad_machine):
        stream = self._workload_stream(quad_machine, accesses=5_000)
        geometry = quad_machine.llc
        full = run_policy_on_stream(stream, geometry, "lru", seed=0)
        totals = 0
        for offset in range(4):
            sampled = SampledLlcSimulator(
                geometry, make_policy("lru"), sample_ratio=4, offset=offset
            ).run(stream)
            totals += sampled.sampled_accesses
        assert totals == full.accesses


@pytest.mark.slow
class TestNightlyFuzz:
    """High-iteration versions of the laws above (``pytest -m slow``)."""

    @settings(max_examples=1000, deadline=None)
    @given(accesses=accesses_strategy(num_threads=4, max_addr=16384))
    def test_hierarchy_counters_telescope_deep(self, accesses):
        stats = CmpHierarchy(QUAD_MACHINE, make_policy("lru")).run(
            make_trace(accesses)
        )
        assert stats.accesses == (
            stats.l1_hits + stats.l2_hits + stats.llc_accesses
        )
        assert stats.llc_accesses == stats.llc_hits + stats.llc_misses

    @settings(max_examples=500, deadline=None)
    @given(
        accesses=stream_strategy(num_cores=4, max_block=256),
        policy=policy_names(),
    )
    def test_llc_replay_partitions_accesses_deep(self, accesses, policy):
        result = run_policy_on_stream(
            make_stream(accesses), CacheGeometry(4096, 8, 64), policy, seed=3
        )
        assert result.hits + result.misses == result.accesses == len(accesses)

    @settings(max_examples=500, deadline=None)
    @given(
        accesses=mixed_access_lists(min_size=1000, max_size=4000),
        config=policy_configs(),
        machine=st.sampled_from([TINY_MACHINE, QUAD_MACHINE]),
        inclusive=st.booleans(),
    )
    def test_fused_hierarchy_matches_reference_deep(self, accesses, config,
                                                    machine, inclusive):
        name, seed = config
        assert_fused_matches_reference(machine, accesses, name, seed,
                                       inclusive)
