"""Unit and equivalence tests for the set-partitioned replay engine.

The big differential matrix (every policy, real streams, PSEL
reconstruction) lives in ``tests/test_differential.py``; this file
pins the engine's own contracts:

* tier resolution — the planner's exact-type kernel table, bound-instance
  demotion, undeclared subclasses (the full pin is ``tests/sim/test_plan.py``);
* the stream partition — a stable per-set grouping of positions;
* the pre-drawn per-set sequences — exactly what successive
  ``randrange`` calls on each set's stream return;
* observer exactness — the assembled walk replays the scalar model's
  callback sequence verbatim, argument for argument, for every kernel
  family (and under hypothesis-driven adversarial streams);
* the walk's residency contract;
* dispatch — :func:`run_policy_on_stream` takes eligible tiers, records
  why scalar-tier replays declined, and honours the gate.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.llc import ResidencyObserver
from repro.common.config import CacheGeometry
from repro.common.errors import SimulationError
from repro.common.rng import DeterministicRng, derive_seed
from repro.policies.dip import DipPolicy
from repro.policies.lru import LruPolicy
from repro.policies.opt import BeladyOptPolicy, compute_next_use
from repro.policies.registry import make_policy
from repro.policies.rrip import DrripPolicy, SrripPolicy
from repro.sim.engine import LlcOnlySimulator
from repro.sim.fastpath import FASTPATH_ENV
from repro.sim.multipass import run_policy_on_stream
from repro.sim.plan import plan_replay
from repro.sim.setpath import (
    _draw_table,
    partition_stream,
    reconstruct_setpath_replay,
    replay_setpath,
)
from tests.conftest import make_stream
from tests.strategies import replay_stream_lists

SETPATH_POLICIES = (
    "lru", "lip", "bip", "dip", "srrip", "brrip", "drrip", "nru", "random",
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


def planned_tier(policy, stream=()):
    return plan_replay(policy, (), stream, True, True).tier


class TestTierResolution:
    def test_name_class_and_instance_agree(self):
        stream = mixed_stream(n=200)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        assert planned_tier(SrripPolicy()) == "set"
        assert planned_tier(LruPolicy()) == "set"
        for name in ("srrip", "lru", "dip"):
            assert (run_policy_on_stream(stream, geometry, name,
                                         fastpath=True).tier
                    == planned_tier(make_policy(name)))

    def test_bound_instance_demotes_to_scalar(self):
        policy = SrripPolicy()
        policy.bind(CacheGeometry(4 * 2 * 64, 2))
        assert planned_tier(policy) == "scalar"

    def test_undeclared_subclass_demotes_to_scalar(self):
        # The kernel table is exact-type keyed: a subclass may override
        # hooks the kernels do not model.
        class TweakedSrrip(SrripPolicy):
            name = "tweaked-srrip"

        assert planned_tier(TweakedSrrip()) == "scalar"


class TestPartition:
    def test_partition_is_stable_per_set_grouping(self):
        stream = mixed_stream(n=3000)
        num_sets = 8
        part = partition_stream(stream.blocks, num_sets)
        assert sorted(part.order_np.tolist()) == list(range(len(stream)))
        assert part.starts[0] == 0 and part.starts[-1] == len(stream)
        for s in range(num_sets):
            lo, hi = part.starts[s], part.starts[s + 1]
            positions = part.order_np[lo:hi].tolist()
            # ... every access of set s, in original stream order.
            assert positions == sorted(positions)
            for p in positions:
                assert stream.blocks[p] & (num_sets - 1) == s


class TestDraws:
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 32, 33, 64, 2**31, 2**33])
    def test_pre_drawn_sequences_match_randrange(self, n):
        # 100 policy seeds x 4 sets, rows of 0 to 300 draws; n = 1 rejects
        # half of the outputs, 2**31 keeps all 32 bits, 2**33 spans two.
        rows = [(seed, s, (seed * 7 + s * 13) % 301 if s else 0)
                for seed in range(100) for s in (0, 3, 17, 255)]
        seeds = [derive_seed(seed, "set", s) for seed, s, __ in rows]
        counts = [count for __, ___, count in rows]
        flat, first = _draw_table(seeds, counts, n)
        for (seed, s, count), start in zip(rows, first.tolist()):
            rng = DeterministicRng(derive_seed(seed, "set", s))
            assert flat[start:start + count].tolist() == [
                rng.randrange(n) for __ in range(count)
            ], (seed, s)


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

    @pytest.mark.parametrize("policy", ("srrip", "drrip", "random"))
    def test_wide_core_masks_identical_to_scalar(self, policy):
        # Core ids above 62 overflow an int64 mask bit; the metadata pass
        # then builds the masks as Python ints (stream cores are int8).
        cores = (0, 5, 62, 63, 100, 127)
        stream = make_stream([
            (cores[i % 6], 0x100 + (i % 3) * 0x10,
             (i * 7 + (i // 13) * 3) % 90, i % 4 == 0)
            for i in range(1500)
        ])
        geometry = CacheGeometry(8 * 4 * 64, 4)
        slow = RecordingObserver()
        LlcOnlySimulator(
            geometry, make_policy(policy, seed=11), observers=(slow,)
        ).run(stream)
        fast = RecordingObserver()
        replay_setpath(
            stream, geometry, make_policy(policy, seed=11), observers=(fast,)
        )
        assert fast.events == slow.events
        assert any(event[0] == "ended" and event[7] >> 127 & 1
                   for event in slow.events)

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

    @staticmethod
    def _few_leaders(name, seed):
        # One leader set per role and a 2-bit PSEL: of 8 sets, 6 follow,
        # and their winner flag flips every few leader misses (at the
        # default 32 leaders per role, every set of a small cache leads).
        cls = {"dip": DipPolicy, "drrip": DrripPolicy}[name]
        return cls(seed=seed, num_leaders_each=1, psel_bits=2)

    @pytest.mark.parametrize("name", ["dip", "drrip"])
    def test_followers_read_every_psel_flip(self, name):
        stream = mixed_stream()
        geometry = CacheGeometry(8 * 2 * 64, 2)
        slow = RecordingObserver()
        ref = LlcOnlySimulator(
            geometry, self._few_leaders(name, 4), observers=(slow,)
        ).run(stream)
        fast = RecordingObserver()
        replay_setpath(
            stream, geometry, self._few_leaders(name, 4), observers=(fast,)
        )
        assert fast.events == slow.events
        counted = replay_setpath(stream, geometry, self._few_leaders(name, 4))
        assert (counted.hits, counted.misses) == (ref.hits, ref.misses)

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(["dip", "drrip"]),
        seed=st.integers(0, 5),
        accesses=replay_stream_lists(max_block=95),
    )
    def test_followers_on_random_streams(self, name, seed, accesses):
        stream = make_stream(accesses)
        geometry = CacheGeometry(8 * 2 * 64, 2)
        ref = LlcOnlySimulator(geometry, self._few_leaders(name, seed)).run(
            stream)
        fast = replay_setpath(stream, geometry, self._few_leaders(name, seed))
        assert (fast.hits, fast.misses) == (ref.hits, ref.misses)

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


def refill_stream(rounds=40):
    """Blocks that come back to their set in another way.

    Of 4 sets x 2 ways, sets 0 and 1 each cycle three blocks as ``A A B B
    C C``, from cores that change with every access. Under LRU and
    SRRIP, each fill evicts the block that the next fill brings back, so
    every block is refilled into the way it did not hold before and then
    hit there: the hit must read the refill's cell, not the cell of the
    block's previous residency.
    """
    blocks = [block for __ in range(rounds) for block in (0, 4, 8, 1, 5, 9)
              for __ in range(2)]
    return make_stream([(i % 4, 0x100 + (i % 3) * 0x10, block, i % 5 == 0)
                        for i, block in enumerate(blocks)])


REFILL_GEOMETRY = CacheGeometry(4 * 2 * 64, 2)


class TestRefills:
    @pytest.mark.parametrize("policy", sorted(SETPATH_POLICIES))
    def test_every_policy_matches_the_model(self, policy):
        stream = refill_stream()
        slow = RecordingObserver()
        ref = LlcOnlySimulator(REFILL_GEOMETRY, make_policy(policy, seed=2),
                               observers=(slow,)).run(stream)
        fast = RecordingObserver()
        replay_setpath(stream, REFILL_GEOMETRY, make_policy(policy, seed=2),
                       observers=(fast,))
        assert fast.events == slow.events
        counted = replay_setpath(stream, REFILL_GEOMETRY,
                                 make_policy(policy, seed=2))
        assert (counted.hits, counted.misses) == (ref.hits, ref.misses)
        assert ref.hits > 0

    @pytest.mark.parametrize("base", ("lru", "srrip", "drrip"))
    @pytest.mark.parametrize("mode", ("victim-exempt", "insert-promote",
                                      "both"))
    def test_oracle_modes_match_the_model(self, base, mode):
        from repro.oracle.runner import run_oracle_study

        stream = refill_stream()
        fast, slow = (
            run_oracle_study(stream, REFILL_GEOMETRY, base=base, mode=mode,
                             horizon_factor=4, fastpath=gate)
            for gate in (True, False))
        assert (fast.base, fast.oracle) == (slow.base, slow.oracle)
        assert (fast.protected_fills, fast.exemptions) == (
            slow.protected_fills, slow.exemptions)
        assert slow.protected_fills > 0


class TestWalkContract:
    def test_every_access_lands_in_a_residency_of_its_block(self):
        stream = mixed_stream()
        geometry = CacheGeometry(8 * 4 * 64, 4)
        walk = reconstruct_setpath_replay(
            stream, geometry, make_policy("srrip", seed=1)
        )
        # The walk's columns are numpy arrays; compare them as lists.
        res_fill, res_block = walk.res_fill.tolist(), walk.res_block.tolist()
        rids = walk.rids.tolist()
        assert res_fill == sorted(res_fill)
        for i, rid in enumerate(rids):
            assert res_block[rid] == stream.blocks[i]
            assert res_fill[rid] <= i
        assert walk.misses == walk.residencies == sum(
            1 for i, rid in enumerate(rids) if res_fill[rid] == i
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
    @staticmethod
    def _replay(policy, **kwargs):
        stream = mixed_stream(n=500)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        return run_policy_on_stream(stream, geometry, policy, **kwargs)

    def test_gate_disables_every_tier(self):
        for policy in ("lru", "srrip", "drrip"):
            result = self._replay(policy, fastpath=False)
            assert (result.backend, result.reason) == ("model", "fastpath-off")

    def test_env_escape_hatch(self, monkeypatch):
        monkeypatch.setenv(FASTPATH_ENV, "1")
        assert self._replay("srrip").reason == "fastpath-off"
        assert self._replay("srrip", fastpath=True).tier == "set"
        monkeypatch.delenv(FASTPATH_ENV)
        assert self._replay("srrip").tier == "set"

    def test_scalar_tier_takes_native_backend(self, monkeypatch):
        # SHiP resolves to the scalar tier but is covered by the native
        # scalar backend: the result is scalar-tier and its backend
        # records the native kernel, not the object model.
        monkeypatch.delenv("REPRO_SIM_NO_NATIVE", raising=False)
        result = self._replay("ship", fastpath=True)
        assert (result.tier, result.backend) == ("scalar", "compact")

    def test_scalar_tier_declines_without_native(self):
        result = self._replay("ship", fastpath=True, native=False)
        assert (result.backend, result.reason) == ("model", "native-off")

    def test_uncovered_scalar_policies_decline(self):
        # Observer-carrying SHiP replays need the scalar model's residency
        # callbacks; bound instances carry state no offline kernel
        # reconstructs. Both fall through to the model.
        class Observer:
            def residency_started(self, *a): pass
            def residency_ended(self, *a): pass

        assert self._replay("ship", observers=(Observer(),),
                            fastpath=True).reason == "observers"
        bound = make_policy("ship", seed=1)
        bound.bind(CacheGeometry(8 * 4 * 64, 4))
        assert plan_replay(bound, (), (), True, True).reason == "bound"

    def test_tiers_are_recorded_on_results(self):
        assert self._replay("lru", fastpath=True).tier == "set"
        assert self._replay("srrip", fastpath=True).tier == "set"
        assert self._replay("dip", fastpath=True).tier == "dueling"

    def test_unbound_instance_passes_through(self):
        assert self._replay(LruPolicy(), fastpath=True).tier == "set"
        assert self._replay(SrripPolicy(), fastpath=True).tier == "set"

    def test_replay_twice_is_deterministic(self):
        # Per-set RNG streams are pure functions of (seed, set): two
        # replays of the same stochastic policy are bit-identical.
        stream = mixed_stream()
        geometry = CacheGeometry(8 * 4 * 64, 4)
        for policy in ("random", "bip", "brrip"):
            first = replay_setpath(stream, geometry, make_policy(policy, seed=9))
            second = replay_setpath(stream, geometry, make_policy(policy, seed=9))
            assert first == second
