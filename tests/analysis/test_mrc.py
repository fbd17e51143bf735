"""Tests for miss-ratio-curve computation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.mrc import compute_mrc
from repro.common.config import CacheGeometry
from repro.common.errors import ConfigError
from repro.policies.lru import LruPolicy
from repro.sim.engine import LlcOnlySimulator
from tests.conftest import read_stream


def lru_fully_assoc_misses(blocks, capacity):
    """Reference: directly simulated fully-associative LRU."""
    stack = []
    misses = 0
    for block in blocks:
        if block in stack:
            stack.remove(block)
        else:
            misses += 1
            if len(stack) == capacity:
                stack.pop()
        stack.insert(0, block)
    return misses


class TestComputeMrc:
    def test_matches_direct_fully_associative_lru(self):
        blocks = [1, 2, 3, 1, 4, 2, 5, 1, 3, 3, 2, 6, 1]
        capacities = (1, 2, 3, 4, 8)
        curve = compute_mrc(read_stream(blocks), capacities)
        for capacity in capacities:
            assert curve.miss_ratio_at(capacity) == lru_fully_assoc_misses(
                blocks, capacity
            ) / len(blocks)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=12), max_size=150),
        st.integers(min_value=1, max_value=10),
    )
    def test_property_matches_direct_lru(self, blocks, capacity):
        curve = compute_mrc(read_stream(blocks), [capacity])
        misses = lru_fully_assoc_misses(blocks, capacity)
        assert curve.miss_ratio_at(capacity) == (
            misses / len(blocks) if blocks else 0.0
        )

    def test_miss_ratio(self):
        curve = compute_mrc(read_stream([1, 1, 1, 2]), [4])
        assert curve.miss_ratio_at(4) == 0.5

    def test_depth_cap_keeps_capacities_within_it_exact(self):
        # Reuses at distance 2 and 3 fall past a depth-2 cap into the far
        # bucket, which every capacity up to the cap counts as misses.
        blocks = [1, 2, 3, 1, 2, 4, 1, 1, 3, 2]
        capped = compute_mrc(read_stream(blocks), [1, 2], max_depth=2)
        deep = compute_mrc(read_stream(blocks), [1, 2])
        assert capped.points == deep.points
        for capacity in (1, 2):
            assert capped.miss_ratio_at(capacity) == lru_fully_assoc_misses(
                blocks, capacity
            ) / len(blocks)

    def test_capacity_at_depth_accepted_one_past_rejected(self):
        stream = read_stream([1, 2, 3, 4, 1])
        curve = compute_mrc(stream, [4], max_depth=4)
        assert curve.miss_ratio_at(4) == 4 / 5
        with pytest.raises(ConfigError, match="exceeds max_depth"):
            compute_mrc(stream, [5], max_depth=4)

    def test_invalid_depth(self):
        with pytest.raises(ConfigError, match="must be positive"):
            compute_mrc(read_stream([1]), [1], max_depth=0)

    def test_monotone_non_increasing(self):
        blocks = [b % 30 for b in range(2000)]
        curve = compute_mrc(read_stream(blocks), [4, 8, 16, 32, 64])
        ratios = [r for __, r in curve.points]
        assert ratios == sorted(ratios, reverse=True)

    def test_cold_stream_all_misses(self):
        curve = compute_mrc(read_stream(list(range(100))), [8, 64])
        assert all(r == 1.0 for __, r in curve.points)

    def test_fitting_working_set_converges_to_cold_ratio(self):
        blocks = [b % 10 for b in range(1000)]
        curve = compute_mrc(read_stream(blocks), [16])
        assert curve.miss_ratio_at(16) == pytest.approx(10 / 1000)

    def test_matches_simulated_fully_associative_lru(self):
        import random

        rng = random.Random(3)
        blocks = [rng.randrange(50) for __ in range(4000)]
        stream = read_stream(blocks)
        capacity = 16
        curve = compute_mrc(stream, [capacity])
        # Fully-associative LRU of `capacity` blocks == 1 set x capacity ways.
        geometry = CacheGeometry(capacity * 64, capacity)
        # Map every block to set 0 by construction: 1-set geometry does it.
        simulated = LlcOnlySimulator(geometry, LruPolicy()).run(stream)
        assert curve.miss_ratio_at(capacity) == pytest.approx(
            simulated.miss_ratio
        )

    def test_knee_capacity(self):
        blocks = [b % 20 for b in range(2000)]
        curve = compute_mrc(read_stream(blocks), [4, 8, 32])
        assert curve.knee_capacity(threshold=0.5) == 32

    def test_knee_falls_back_to_largest(self):
        curve = compute_mrc(read_stream(list(range(100))), [4, 8])
        assert curve.knee_capacity() == 8

    def test_unknown_capacity_rejected(self):
        curve = compute_mrc(read_stream([1, 2]), [4])
        with pytest.raises(ConfigError):
            curve.miss_ratio_at(5)

    def test_empty_capacities_rejected(self):
        with pytest.raises(ConfigError):
            compute_mrc(read_stream([1]), [])

    def test_capacity_beyond_depth_rejected(self):
        with pytest.raises(ConfigError):
            compute_mrc(read_stream([1]), [1 << 20], max_depth=1 << 10)

    def test_curve_metadata(self):
        stream = read_stream([1, 2, 3])
        curve = compute_mrc(stream, [8])
        assert curve.accesses == 3
        assert curve.stream_name == stream.name
