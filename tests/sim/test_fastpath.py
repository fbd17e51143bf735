"""Plain LRU on the fast path, the fast-path gate, and the stack walk.

The load-bearing property is *bit-identity*: for every stream and geometry,
an LRU :func:`run_policy_on_stream` replay on the set tier must produce
exactly what the scalar ``LlcOnlySimulator(geometry, LruPolicy(),
observers)`` replay produces — same hit/miss counts, same observer
callbacks with the same arguments in the same order (victim-ended before
fill-started, forced flushes in (set, way) order). Hypothesis drives
random streams across geometries and both metadata-reconstruction kernels
(numpy, and the pure-Python pass that serves core ids too wide for int64
masks). :func:`lru_stack_distances`, the one stack-distance walk, is
pinned against the distance's definition.
"""

import os

from hypothesis import given, settings, strategies as st

from repro.cache.llc import ResidencyObserver
from repro.characterization.hits import SharingClassifier
from repro.characterization.phases import SharingPhaseTracker
from repro.common.config import CacheGeometry
from repro.policies.lru import LruPolicy
from repro.predictors.harness import PredictorHarness
from repro.predictors.registry import make_predictor
from repro.sim.engine import LlcOnlySimulator
from repro.sim.fastpath import (
    FASTPATH_ENV,
    fastpath_enabled,
    lru_stack_distances,
)
from repro.sim.multipass import run_policy_on_stream
from repro.sim.setpath import (
    _reconstruct_numpy,
    _reconstruct_python,
    _replay_observers,
    reconstruct_setpath_replay,
)
from tests.conftest import make_stream
from tests.strategies import replay_stream_lists

GEOMETRIES = [
    CacheGeometry(1 * 1 * 64, 1),    # 1 set x 1 way (degenerate)
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


def scalar_replay(stream, geometry, observers=()):
    return LlcOnlySimulator(geometry, LruPolicy(), observers=observers).run(stream)


def fast_replay(stream, geometry, observers=()):
    result = run_policy_on_stream(stream, geometry, "lru", observers=observers,
                                  fastpath=True)
    assert (result.tier, result.backend) == ("set", "numpy")
    return result


accesses_strategy = replay_stream_lists(max_block=40, min_size=0, max_size=300)


class TestEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(accesses=accesses_strategy, geometry_index=st.integers(0, 3))
    def test_counts_and_callbacks_bit_identical(self, accesses, geometry_index):
        geometry = GEOMETRIES[geometry_index]
        stream = make_stream(accesses)

        slow_obs, fast_obs = RecordingObserver(), RecordingObserver()
        slow = scalar_replay(stream, geometry, observers=(slow_obs,))
        fast = fast_replay(stream, geometry, observers=(fast_obs,))

        assert (fast.accesses, fast.hits, fast.misses) \
            == (slow.accesses, slow.hits, slow.misses)
        assert fast.policy == slow.policy == "lru"
        assert fast_obs.events == slow_obs.events

    @settings(max_examples=40, deadline=None)
    @given(accesses=accesses_strategy, geometry_index=st.integers(0, 3))
    def test_python_kernel_matches_scalar(self, accesses, geometry_index):
        geometry = GEOMETRIES[geometry_index]
        stream = make_stream(accesses)
        slow_obs, fast_obs = RecordingObserver(), RecordingObserver()
        scalar_replay(stream, geometry, observers=(slow_obs,))
        walk = reconstruct_setpath_replay(stream, geometry, LruPolicy())
        _reconstruct_python(walk, stream)
        _replay_observers(walk, stream, (fast_obs,))
        assert fast_obs.events == slow_obs.events

    @settings(max_examples=40, deadline=None)
    @given(accesses=accesses_strategy, geometry_index=st.integers(0, 3))
    def test_numpy_kernel_matches_python(self, accesses, geometry_index):
        geometry = GEOMETRIES[geometry_index]
        stream = make_stream(accesses)
        walk = reconstruct_setpath_replay(stream, geometry, LruPolicy())

        def metadata():
            return (list(walk.res_hits), list(walk.res_other_hits),
                    list(walk.res_core_mask), list(walk.res_write_mask))

        assert _reconstruct_numpy(walk, stream)
        vectorized = metadata()
        _reconstruct_python(walk, stream)
        assert metadata() == vectorized

    @settings(max_examples=40, deadline=None)
    @given(accesses=accesses_strategy, geometry_index=st.integers(0, 3))
    def test_no_observer_counts_match_scalar(self, accesses, geometry_index):
        geometry = GEOMETRIES[geometry_index]
        stream = make_stream(accesses)
        slow = scalar_replay(stream, geometry)
        fast = fast_replay(stream, geometry)
        assert fast == slow  # LlcSimResult equality excludes timing

    def test_wide_core_ids_defer_to_python(self):
        # Core 63 overflows the int64 mask kernel; the numpy pass must
        # defer rather than produce wrong masks.
        stream = make_stream([(63, 0x100, b, False) for b in range(8)]
                             + [(63, 0x100, b, False) for b in range(8)])
        geometry = CacheGeometry(2 * 4 * 64, 4)
        obs_fast, obs_slow = RecordingObserver(), RecordingObserver()
        fast_replay(stream, geometry, observers=(obs_fast,))
        scalar_replay(stream, geometry, observers=(obs_slow,))
        assert obs_fast.events == obs_slow.events
        profile = {}
        reconstruct_setpath_replay(stream, geometry, LruPolicy(),
                                   profile=profile)
        assert profile["reconstruct_kernel"] == "python"


class TestStackDistances:
    def brute_force(self, blocks, num_sets, ways):
        """Distance by definition: distinct same-set blocks since last use."""
        out = []
        for i, block in enumerate(blocks):
            prev = None
            for j in range(i - 1, -1, -1):
                if blocks[j] == block:
                    prev = j
                    break
            if prev is None:
                out.append(ways)
                continue
            distinct = {
                blocks[j] for j in range(prev + 1, i)
                if (blocks[j] & (num_sets - 1)) == (block & (num_sets - 1))
                and blocks[j] != block
            }
            out.append(min(len(distinct), ways))
        return out

    @settings(max_examples=60, deadline=None)
    @given(blocks=st.lists(st.integers(0, 30), max_size=120),
           geometry_index=st.integers(0, 3))
    def test_matches_brute_force(self, blocks, geometry_index):
        geometry = GEOMETRIES[geometry_index]
        got = lru_stack_distances(blocks, geometry.num_sets, geometry.ways)
        assert list(got) == self.brute_force(
            blocks, geometry.num_sets, geometry.ways
        )

    def test_hit_iff_distance_below_ways(self, small_geometry):
        blocks = [0, 8, 16, 24, 32, 0, 8, 99, 0]
        stream = make_stream([(0, 0x1, b, False) for b in blocks])
        distances = lru_stack_distances(
            blocks, small_geometry.num_sets, small_geometry.ways
        )
        slow = scalar_replay(stream, small_geometry)
        hits = sum(1 for d in distances if d < small_geometry.ways)
        assert hits == slow.hits


class TestRealObservers:
    """The observers the pipeline actually attaches see identical state."""

    def _stream(self):
        import random

        rng = random.Random(7)
        return make_stream([
            (rng.randrange(4), rng.choice([0x10, 0x20, 0x30]),
             rng.randrange(60), rng.random() < 0.3)
            for __ in range(4000)
        ])

    def test_sharing_classifier_breakdown(self, small_geometry):
        stream = self._stream()
        slow_c, fast_c = SharingClassifier(), SharingClassifier()
        scalar_replay(stream, small_geometry, observers=(slow_c,))
        fast_replay(stream, small_geometry, observers=(fast_c,))
        assert fast_c.breakdown == slow_c.breakdown

    def test_predictor_harness_matrix(self, small_geometry):
        stream = self._stream()
        slow_h = PredictorHarness(make_predictor("hybrid"))
        fast_h = PredictorHarness(make_predictor("hybrid"))
        scalar_replay(stream, small_geometry, observers=(slow_h,))
        fast_replay(stream, small_geometry, observers=(fast_h,))
        assert fast_h.matrix == slow_h.matrix

    def test_phase_tracker_stats(self, small_geometry):
        stream = self._stream()
        slow_t, fast_t = SharingPhaseTracker(), SharingPhaseTracker()
        scalar_replay(stream, small_geometry, observers=(slow_t,))
        fast_replay(stream, small_geometry, observers=(fast_t,))
        assert fast_t.finalize() == slow_t.finalize()


class TestGates:
    def test_enabled_three_state(self, monkeypatch):
        monkeypatch.delenv(FASTPATH_ENV, raising=False)
        assert fastpath_enabled(None)
        assert fastpath_enabled(True)
        assert not fastpath_enabled(False)
        monkeypatch.setenv(FASTPATH_ENV, "1")
        assert not fastpath_enabled(None)   # env disables auto...
        assert fastpath_enabled(True)       # ...but an explicit True wins
        monkeypatch.setenv(FASTPATH_ENV, "")
        assert fastpath_enabled(None)       # empty value = unset

    def test_run_policy_on_stream_identical_either_path(self, small_geometry):
        stream = make_stream([(0, 0x1, b % 37, False) for b in range(2000)])
        fast = run_policy_on_stream(stream, small_geometry, "lru")
        slow = run_policy_on_stream(
            stream, small_geometry, "lru", fastpath=False
        )
        assert fast == slow

    def test_env_escape_hatch(self, small_geometry, monkeypatch):
        stream = make_stream([(0, 0x1, b % 37, False) for b in range(500)])
        monkeypatch.setenv(FASTPATH_ENV, "1")
        disabled = run_policy_on_stream(stream, small_geometry, "lru")
        monkeypatch.delenv(FASTPATH_ENV)
        enabled = run_policy_on_stream(stream, small_geometry, "lru")
        assert disabled == enabled

    def test_policy_instance_bypasses_fastpath(self, small_geometry):
        # A pre-built unbound LruPolicy and the name take the same plan;
        # assert on behaviour: instance and name paths agree.
        stream = make_stream([(0, 0x1, b % 23, False) for b in range(800)])
        by_name = run_policy_on_stream(stream, small_geometry, "lru")
        by_instance = run_policy_on_stream(stream, small_geometry, LruPolicy())
        assert (by_name.hits, by_name.misses) \
            == (by_instance.hits, by_instance.misses)


class TestPipelineEquivalence:
    """Fastpath on vs off through the high-level study entry points."""

    def _stream(self):
        import random

        rng = random.Random(3)
        return make_stream([
            (rng.randrange(2), rng.choice([0x10, 0x20]),
             rng.randrange(50), rng.random() < 0.25)
            for __ in range(3000)
        ])

    def test_oracle_study_invariant(self, small_geometry):
        from repro.oracle.runner import run_oracle_study

        stream = self._stream()
        fast = run_oracle_study(stream, small_geometry, fastpath=True)
        slow = run_oracle_study(stream, small_geometry, fastpath=False)
        assert fast.base == slow.base
        assert fast.oracle == slow.oracle
        assert fast.horizon_factor == slow.horizon_factor

    def test_characterize_invariant(self, small_geometry):
        from repro.characterization.report import characterize_stream

        stream = self._stream()
        fast = characterize_stream(stream, small_geometry, fastpath=True)
        slow = characterize_stream(stream, small_geometry, fastpath=False)
        assert fast.result == slow.result
        assert fast.breakdown == slow.breakdown
        assert fast.phases == slow.phases
