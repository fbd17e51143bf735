"""Unit and equivalence tests for the set-partitioned replay engine.

The big differential matrix (every policy, real streams, PSEL
reconstruction) lives in ``tests/test_differential.py``; this file
pins the engine's own contracts:

* tier resolution — double eligibility (declared tier *and* an
  exact-type kernel), bound-instance demotion, undeclared subclasses;
* the stream partition — a stable per-set grouping of positions;
* observer exactness — the assembled walk replays the scalar model's
  callback sequence verbatim, argument for argument, for every kernel
  family (and under hypothesis-driven adversarial streams);
* the walk's degenerate-distance contract;
* dispatch — :func:`try_fast_replay` takes eligible tiers, declines
  scalar-tier policies, and honours the gate.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.llc import ResidencyObserver
from repro.common.config import CacheGeometry
from repro.common.errors import SimulationError
from repro.policies.base import ReplacementPolicy
from repro.policies.lru import LruPolicy
from repro.policies.opt import BeladyOptPolicy, compute_next_use
from repro.policies.registry import POLICY_NAMES, make_policy
from repro.policies.rrip import SrripPolicy
from repro.sim.engine import LlcOnlySimulator
from repro.sim.fastpath import FASTPATH_ENV
from repro.sim.setpath import (
    partition_stream,
    reconstruct_setpath_replay,
    replay_setpath,
    replay_tier_table,
    setpath_tier_of,
    try_fast_replay,
)
from tests.conftest import make_stream
from tests.strategies import replay_stream_lists

SETPATH_POLICIES = (
    "lip", "bip", "dip", "srrip", "brrip", "drrip", "nru", "random",
)

GEOMETRIES = [
    CacheGeometry(2 * 1 * 64, 1),    # 2 sets x 1 way (degenerate)
    CacheGeometry(4 * 2 * 64, 2),    # 4 sets x 2 ways
    CacheGeometry(2 * 4 * 64, 4),    # 2 sets x 4 ways
    CacheGeometry(8 * 8 * 64, 8),    # 8 sets x 8 ways
]


class RecordingObserver(ResidencyObserver):
    """Logs every callback verbatim for sequence comparison."""

    def __init__(self):
        self.events = []

    def residency_started(self, block, set_index, fill_ordinal, pc, core):
        self.events.append(("started", block, set_index, fill_ordinal, pc, core))

    def residency_ended(self, block, set_index, fill_ordinal, end_ordinal,
                        fill_pc, fill_core, core_mask, write_mask, hits,
                        other_hits, forced):
        self.events.append((
            "ended", block, set_index, fill_ordinal, end_ordinal, fill_pc,
            fill_core, core_mask, write_mask, hits, other_hits, forced,
        ))


def mixed_stream(n=4000, spread=160):
    """A deterministic multi-core read/write stream with reuse."""
    accesses = []
    for i in range(n):
        block = (i * 7 + (i // 13) * 3) % spread
        accesses.append((i % 4, 0x100 + (i % 3) * 0x10, block, i % 5 == 0))
    return make_stream(accesses)


accesses_strategy = replay_stream_lists()


class TestTierResolution:
    def test_table_covers_every_registered_policy(self):
        table = replay_tier_table()
        for name in POLICY_NAMES:
            assert name in table
        assert all(
            tier in ("stack", "set", "dueling", "scalar")
            for tier in table.values()
        )

    def test_name_class_and_instance_agree(self):
        assert setpath_tier_of("srrip") == "set"
        assert setpath_tier_of(SrripPolicy) == "set"
        assert setpath_tier_of(SrripPolicy()) == "set"
        assert setpath_tier_of("lru") == "stack"
        assert setpath_tier_of("ship") == "scalar"
        assert setpath_tier_of("nope") == "scalar"

    def test_bound_instance_demotes_to_scalar(self):
        policy = SrripPolicy()
        policy.bind(CacheGeometry(4 * 2 * 64, 2))
        assert setpath_tier_of(policy) == "scalar"

    def test_undeclared_subclass_demotes_to_scalar(self):
        # Declarations never inherit: a subclass may override hooks the
        # kernels do not model, and the kernel table is exact-type keyed.
        class TweakedSrrip(SrripPolicy):
            name = "tweaked-srrip"

        assert setpath_tier_of(TweakedSrrip) == "scalar"
        assert setpath_tier_of(TweakedSrrip()) == "scalar"

    def test_declared_tier_without_kernel_demotes_to_scalar(self):
        # Even an explicit declaration is not enough without an
        # exact-type kernel in the family table.
        class Declared(ReplacementPolicy):
            name = "declared"
            REPLAY_TIER = "set"

        assert Declared.replay_tier() == "set"
        assert setpath_tier_of(Declared) == "scalar"


class TestPartition:
    def test_partition_is_stable_per_set_grouping(self):
        stream = mixed_stream(n=3000)
        num_sets = 8
        part = partition_stream(stream.blocks, num_sets)
        assert sorted(part.order) == list(range(len(stream)))
        assert part.starts[0] == 0 and part.starts[-1] == len(stream)
        for s in range(num_sets):
            lo, hi = part.starts[s], part.starts[s + 1]
            positions = part.order[lo:hi]
            # ... every access of set s, in original stream order.
            assert positions == sorted(positions)
            for p in positions:
                assert stream.blocks[p] & (num_sets - 1) == s
            assert part.blocks[lo:hi] == [stream.blocks[p] for p in positions]


class TestObserverExactness:
    @pytest.mark.parametrize("policy", sorted(SETPATH_POLICIES))
    def test_callback_sequence_identical_to_scalar(self, policy):
        stream = mixed_stream()
        geometry = CacheGeometry(8 * 4 * 64, 4)
        slow = RecordingObserver()
        LlcOnlySimulator(
            geometry, make_policy(policy, seed=11), observers=(slow,)
        ).run(stream)
        fast = RecordingObserver()
        result = replay_setpath(
            stream, geometry, make_policy(policy, seed=11), observers=(fast,)
        )
        assert fast.events == slow.events
        assert result.tier in ("set", "dueling")

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_counts_identical_across_geometries(self, geometry):
        stream = mixed_stream(n=2500, spread=geometry.num_blocks * 3)
        for policy in sorted(SETPATH_POLICIES):
            fast = replay_setpath(stream, geometry, make_policy(policy, seed=5))
            slow = LlcOnlySimulator(
                geometry, make_policy(policy, seed=5)
            ).run(stream)
            assert (fast.hits, fast.misses) == (slow.hits, slow.misses), policy

    @staticmethod
    def _assert_matches_scalar(policy, seed, accesses):
        stream = make_stream(accesses)
        geometry = CacheGeometry(4 * 2 * 64, 2)
        slow = RecordingObserver()
        ref = LlcOnlySimulator(
            geometry, make_policy(policy, seed=seed), observers=(slow,)
        ).run(stream)
        fast = RecordingObserver()
        result = replay_setpath(
            stream, geometry, make_policy(policy, seed=seed), observers=(fast,)
        )
        assert (result.hits, result.misses) == (ref.hits, ref.misses)
        assert fast.events == slow.events
        counted = replay_setpath(
            stream, geometry, make_policy(policy, seed=seed)
        )
        assert (counted.hits, counted.misses) == (ref.hits, ref.misses)

    @settings(max_examples=25, deadline=None)
    @given(
        policy=st.sampled_from(sorted(SETPATH_POLICIES)),
        seed=st.integers(0, 5),
        accesses=accesses_strategy,
    )
    def test_random_streams_bit_identical(self, policy, seed, accesses):
        self._assert_matches_scalar(policy, seed, accesses)

    @pytest.mark.parametrize("policy", sorted(SETPATH_POLICIES))
    @pytest.mark.parametrize(
        "accesses", [[], [(1, 0x44, 5, True)]], ids=["empty", "one-access"]
    )
    def test_degenerate_streams_bit_identical(self, policy, accesses):
        # The hypothesis strategy never draws an empty stream.
        self._assert_matches_scalar(policy, 3, accesses)

    def test_opt_walk_matches_scalar(self):
        stream = mixed_stream()
        geometry = CacheGeometry(8 * 4 * 64, 4)
        next_use = compute_next_use(stream.blocks)
        slow = RecordingObserver()
        LlcOnlySimulator(
            geometry, BeladyOptPolicy(next_use), observers=(slow,)
        ).run(stream)
        fast = RecordingObserver()
        replay_setpath(
            stream, geometry, BeladyOptPolicy(next_use), observers=(fast,)
        )
        assert fast.events == slow.events


class TestWalkContract:
    def test_distances_are_degenerate_hit_miss_markers(self):
        stream = mixed_stream()
        geometry = CacheGeometry(8 * 4 * 64, 4)
        walk = reconstruct_setpath_replay(
            stream, geometry, make_policy("srrip", seed=1)
        )
        assert set(walk.distances) <= {0, geometry.ways}
        assert walk.misses == sum(
            1 for d in walk.distances if d == geometry.ways
        )
        assert walk.hits + walk.misses == walk.n == len(stream)

    def test_ineligible_policy_is_rejected(self):
        stream = mixed_stream(n=200)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        with pytest.raises(SimulationError):
            reconstruct_setpath_replay(
                stream, geometry, make_policy("ship", seed=1)
            )


class TestDispatch:
    def test_gate_disables_every_tier(self):
        stream = mixed_stream(n=500)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        for policy in ("lru", "srrip", "drrip"):
            assert try_fast_replay(
                stream, geometry, policy, fastpath=False
            ) is None

    def test_env_escape_hatch(self, monkeypatch):
        stream = mixed_stream(n=500)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        monkeypatch.setenv(FASTPATH_ENV, "1")
        assert try_fast_replay(stream, geometry, "srrip") is None
        assert try_fast_replay(stream, geometry, "srrip", fastpath=True) is not None
        monkeypatch.delenv(FASTPATH_ENV)
        assert try_fast_replay(stream, geometry, "srrip") is not None

    def test_scalar_tier_takes_native_backend(self, monkeypatch):
        # SHiP resolves to the scalar tier but is covered by the native
        # scalar backend: dispatch returns a scalar-tier result whose
        # backend records the native kernel, not the object model.
        monkeypatch.delenv("REPRO_SIM_NO_NATIVE", raising=False)
        stream = mixed_stream(n=500)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        result = try_fast_replay(stream, geometry, "ship")
        assert result is not None
        assert result.tier == "scalar"
        assert result.backend == "compact"

    def test_scalar_tier_declines_without_native(self):
        stream = mixed_stream(n=500)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        assert try_fast_replay(stream, geometry, "ship", native=False) is None

    def test_uncovered_scalar_policies_decline(self):
        # Observer-carrying SHiP replays need the scalar model's residency
        # callbacks; bound instances carry state no offline kernel
        # reconstructs. Both fall through to the model.
        stream = mixed_stream(n=500)
        geometry = CacheGeometry(8 * 4 * 64, 4)

        class Observer:
            def residency_started(self, *a): pass
            def residency_ended(self, *a): pass

        assert try_fast_replay(
            stream, geometry, "ship", observers=(Observer(),)
        ) is None
        bound = make_policy("ship", seed=1)
        bound.bind(geometry)
        assert try_fast_replay(stream, geometry, bound) is None

    def test_tiers_are_recorded_on_results(self):
        stream = mixed_stream(n=500)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        assert try_fast_replay(stream, geometry, "lru").tier == "stack"
        assert try_fast_replay(stream, geometry, "srrip").tier == "set"
        assert try_fast_replay(stream, geometry, "dip").tier == "dueling"

    def test_unbound_instance_passes_through(self):
        stream = mixed_stream(n=500)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        result = try_fast_replay(stream, geometry, LruPolicy())
        assert result is not None and result.tier == "stack"
        result = try_fast_replay(stream, geometry, SrripPolicy())
        assert result is not None and result.tier == "set"

    def test_replay_twice_is_deterministic(self):
        # Per-set RNG streams are pure functions of (seed, set): two
        # replays of the same stochastic policy are bit-identical.
        stream = mixed_stream()
        geometry = CacheGeometry(8 * 4 * 64, 4)
        for policy in ("random", "bip", "brrip"):
            first = replay_setpath(stream, geometry, make_policy(policy, seed=9))
            second = replay_setpath(stream, geometry, make_policy(policy, seed=9))
            assert first == second
