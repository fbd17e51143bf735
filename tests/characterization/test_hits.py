"""Tests for the sharing classifier and hit breakdown."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.characterization import hits
from repro.characterization.hits import HitBreakdown, SharingClassifier, popcount
from repro.characterization.pc_profile import PcSharingProfiler
from repro.characterization.report import characterize_stream
from repro.common.config import CacheGeometry
from repro.policies.lru import LruPolicy
from repro.policies.registry import make_policy
from repro.sim.engine import LlcOnlySimulator
from repro.sim.setpath import replay_setpath
from tests.conftest import make_stream
from tests.sim.test_setpath import SETPATH_POLICIES
from tests.strategies import geometries, replay_stream_lists

GEOMETRY = CacheGeometry(2 * 2 * 64, 2)
WIDE_CORES = (0, 5, 62, 63, 100, 127)
"""Core ids whose mask bits overflow an int64 mask from 63 on."""


def classify(accesses):
    classifier = SharingClassifier()
    simulator = LlcOnlySimulator(GEOMETRY, LruPolicy(), observers=(classifier,))
    simulator.run(make_stream(accesses))
    return classifier.breakdown


class TestPopcount:
    def test_values(self):
        assert popcount(0) == 0
        assert popcount(0b1) == 1
        assert popcount(0b1011) == 3
        assert popcount(0xFF) == 8


class TestSharingClassifier:
    def test_private_residency(self):
        breakdown = classify([(0, 0, 0, False), (0, 0, 0, False)])
        assert breakdown.residencies == 1
        assert breakdown.shared_residencies == 0
        assert breakdown.private_residencies == 1
        assert breakdown.hits == 1
        assert breakdown.private_hits == 1

    def test_read_only_shared_residency(self):
        breakdown = classify([(0, 0, 0, False), (1, 0, 0, False)])
        assert breakdown.shared_residencies == 1
        assert breakdown.ro_shared_residencies == 1
        assert breakdown.rw_shared_residencies == 0
        assert breakdown.shared_hits == 1
        assert breakdown.ro_shared_hits == 1

    def test_read_write_shared_residency(self):
        breakdown = classify([(0, 0, 0, True), (1, 0, 0, False)])
        assert breakdown.rw_shared_residencies == 1
        assert breakdown.ro_shared_residencies == 0

    def test_write_by_second_core_is_rw(self):
        breakdown = classify([(0, 0, 0, False), (1, 0, 0, True)])
        assert breakdown.rw_shared_residencies == 1

    def test_dead_residencies(self):
        breakdown = classify([(0, 0, 0, False), (0, 0, 1, False)])
        assert breakdown.dead_residencies == 2
        assert breakdown.dead_private_residencies == 2
        assert breakdown.dead_fill_fraction == 1.0

    def test_degree_histogram(self):
        breakdown = classify([
            (0, 0, 0, False), (1, 0, 0, False), (2, 0, 0, False),  # degree 3
            (0, 0, 1, False),                                       # degree 1
        ])
        assert breakdown.degree_residencies == {3: 1, 1: 1}
        assert breakdown.degree_hits[3] == 2

    def test_fractions(self):
        breakdown = classify([
            (0, 0, 0, False), (1, 0, 0, False), (1, 0, 0, False),  # shared, 2 hits
            (0, 0, 1, False), (0, 0, 1, False),                     # private, 1 hit
        ])
        assert breakdown.shared_residency_fraction == 0.5
        assert breakdown.shared_hit_fraction == pytest.approx(2 / 3)
        # Shared residencies earn 2 hits/residency vs 1.5 overall.
        assert breakdown.hit_density_ratio == pytest.approx(2 / 1.5)

    def test_empty_run(self):
        breakdown = classify([])
        assert breakdown.residencies == 0
        assert breakdown.shared_hit_fraction == 0.0
        assert breakdown.hit_density_ratio == 0.0


class TestCharacterizeStream:
    def test_bundles_classifier_and_phases(self):
        accesses = [(0, 0, 0, False), (1, 0, 0, False), (0, 0, 1, False)]
        report = characterize_stream(make_stream(accesses), GEOMETRY)
        assert report.result.accesses == 3
        assert report.breakdown.residencies == 2
        assert report.phases.transitions == 0  # single residency per block

    def test_lru_characterization_takes_the_set_tier(self):
        # The classifier rides the lockstep walk, so it sends LRU to no
        # slower engine (the fast path pinned on against the CI gates).
        accesses = [(i % 2, 0, i % 5, False) for i in range(20)]
        report = characterize_stream(make_stream(accesses), GEOMETRY,
                                     fastpath=True)
        assert (report.result.tier, report.result.backend,
                report.result.reason) == ("set", "numpy", "")

    def test_phase_tracking_optional(self):
        report = characterize_stream(make_stream([(0, 0, 0, False)]), GEOMETRY,
                                     track_phases=False)
        assert report.phases.transitions == 0

    def test_policy_affects_residencies(self):
        accesses = [(0, 0, b % 6, False) for b in range(60)]
        lru = characterize_stream(make_stream(accesses), GEOMETRY, "lru")
        lip = characterize_stream(make_stream(accesses), GEOMETRY, "lip")
        assert lru.result.misses != lip.result.misses


WIDE_STREAMS = replay_stream_lists(num_cores=len(WIDE_CORES)).map(
    lambda accesses: [(WIDE_CORES[core], *rest) for core, *rest in accesses])
"""Replay stream lists over :data:`WIDE_CORES`."""


def fields(breakdown):
    """Every field of a breakdown; each count must be a plain int."""
    values = dataclasses.asdict(breakdown)
    counts = [v for v in values.values() if not isinstance(v, dict)]
    for histogram in (values["degree_residencies"], values["degree_hits"]):
        counts += [*histogram, *histogram.values()]
    assert all(type(count) is int for count in counts)
    return values


def model_and_set_tier(policy, seed, stream, geometry, observers):
    """Replay ``stream`` on the model with ``observers[0]`` and on the
    set tier with ``observers[1]``."""
    LlcOnlySimulator(geometry, make_policy(policy, seed=seed),
                     observers=observers[0]).run(stream)
    result = replay_setpath(stream, geometry, make_policy(policy, seed=seed),
                            observers=observers[1])
    assert result.tier in ("set", "dueling")


class CountingClassifier(SharingClassifier):
    """A classifier that counts the callbacks it receives."""

    def __init__(self):
        super().__init__()
        self.callbacks = 0

    def residency_started(self, *args):
        self.callbacks += 1

    def residency_ended(self, *args):
        self.callbacks += 1
        super().residency_ended(*args)


class RecordingProfiler(PcSharingProfiler):
    """A PC profiler that also logs its callbacks verbatim."""

    def __init__(self):
        super().__init__()
        self.events = []

    def residency_started(self, *args):
        self.events.append(("started", *args))

    def residency_ended(self, *args):
        self.events.append(("ended", *args))
        super().residency_ended(*args)


class TestWalkReduction:
    """The set tier's column reduction equals the model's callbacks."""

    @settings(max_examples=40, deadline=None)
    @given(policy=st.sampled_from(SETPATH_POLICIES), seed=st.integers(0, 5),
           accesses=st.one_of(replay_stream_lists(num_cores=8), WIDE_STREAMS),
           # Dueling policies need a leader set of each role.
           geometry=geometries(max_set_bits=3).filter(
               lambda geometry: geometry.num_sets > 1))
    def test_breakdown_equals_model(self, policy, seed, accesses, geometry):
        slow, fast = SharingClassifier(), SharingClassifier()
        model_and_set_tier(policy, seed, make_stream(accesses), geometry,
                           ((slow,), (fast,)))
        assert fields(fast.breakdown) == fields(slow.breakdown)

    @pytest.mark.parametrize("policy", ["lru", "srrip", "drrip"])
    def test_wide_core_masks(self, policy):
        stream = make_stream([
            (WIDE_CORES[i % 6], 0x100, (i * 7 + (i // 13) * 3) % 40, i % 4 == 0)
            for i in range(1500)
        ])
        slow, fast = SharingClassifier(), SharingClassifier()
        model_and_set_tier(policy, 3, stream, CacheGeometry(8 * 4 * 64, 4),
                           ((slow,), (fast,)))
        assert fields(fast.breakdown) == fields(slow.breakdown)
        assert max(fast.breakdown.degree_residencies) > 2

    def test_set_tier_replay_makes_no_callback(self):
        stream = make_stream([(i % 4, 0x100, (i * 7) % 60, i % 5 == 0)
                              for i in range(2000)])
        geometry = CacheGeometry(8 * 4 * 64, 4)
        slow, fast = CountingClassifier(), CountingClassifier()
        model_and_set_tier("lru", 0, stream, geometry, ((slow,), (fast,)))
        assert fast.callbacks == 0
        assert slow.callbacks == 2 * slow.breakdown.residencies > 0
        assert fields(fast.breakdown) == fields(slow.breakdown)

    @pytest.mark.parametrize("policy", ["lru", "drrip"])
    def test_mixed_observers(self, policy):
        # The classifier takes the walk; the profiler beside it still gets
        # the model's exact callback sequence.
        stream = make_stream([(i % 3, 0x100 + (i % 5) * 4, (i * 11) % 70,
                               i % 6 == 0) for i in range(2000)])
        geometry = CacheGeometry(8 * 4 * 64, 4)
        slow = (SharingClassifier(), RecordingProfiler())
        fast = (SharingClassifier(), RecordingProfiler())
        model_and_set_tier(policy, 1, stream, geometry, (slow, fast))
        assert fast[1].events == slow[1].events
        assert fast[1].finalize() == slow[1].finalize()
        assert fields(fast[0].breakdown) == fields(slow[0].breakdown)

    def test_reuse_accumulates_both_replays(self):
        geometry = CacheGeometry(8 * 4 * 64, 4)
        first = make_stream([(i % 4, 0x100, (i * 7) % 60, False)
                             for i in range(900)])
        second = make_stream([(i % 2, 0x100, (i * 5) % 90, i % 3 == 0)
                              for i in range(700)])
        slow, fast, mixed = (SharingClassifier() for __ in range(3))
        for stream in (first, second):
            model_and_set_tier("srrip", 2, stream, geometry,
                               ((slow,), (fast,)))
        # One replay through each path accumulates the same way.
        model_and_set_tier("srrip", 2, first, geometry, ((mixed,), ()))
        model_and_set_tier("srrip", 2, second, geometry, ((), (mixed,)))
        alone = SharingClassifier()
        model_and_set_tier("srrip", 2, first, geometry, ((), (alone,)))
        assert fields(fast.breakdown) == fields(slow.breakdown) == fields(
            mixed.breakdown)
        assert slow.breakdown.residencies > alone.breakdown.residencies

    def test_queue_reduces_in_chunks(self, monkeypatch):
        # A model replay longer than the callback queue reduces it in
        # several chunks and still equals a single reduction.
        stream = make_stream([(i % 4, 0x100, (i * 7) % 60, i % 5 == 0)
                              for i in range(2000)])
        whole = SharingClassifier()
        LlcOnlySimulator(GEOMETRY, LruPolicy(), observers=(whole,)).run(stream)
        monkeypatch.setattr(hits, "_QUEUE_LIMIT", 3 * 7)
        chunked = SharingClassifier()
        LlcOnlySimulator(GEOMETRY, LruPolicy(), observers=(chunked,)).run(
            stream)
        assert len(chunked._queue) < 3 * 7
        assert fields(chunked.breakdown) == fields(whole.breakdown)
