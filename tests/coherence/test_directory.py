"""Tests for repro.coherence.directory."""

import pytest

from repro.coherence.directory import Directory
from repro.common.errors import SimulationError


class TestDirectory:
    def test_initially_empty(self):
        directory = Directory(4)
        assert directory.sharers(42) == 0
        assert not directory.is_cached(42)
        assert len(directory) == 0

    def test_add_sharers_accumulates_mask(self):
        directory = Directory(4)
        directory.add_sharer(10, 0)
        directory.add_sharer(10, 2)
        assert directory.sharers(10) == 0b101
        assert directory.is_cached(10)

    def test_add_same_sharer_idempotent(self):
        directory = Directory(4)
        directory.add_sharer(10, 1)
        directory.add_sharer(10, 1)
        assert directory.sharers(10) == 0b10

    def test_remove_sharer(self):
        directory = Directory(4)
        directory.add_sharer(10, 0)
        directory.add_sharer(10, 1)
        directory.remove_sharer(10, 0)
        assert directory.sharers(10) == 0b10

    def test_remove_last_sharer_drops_entry(self):
        directory = Directory(4)
        directory.add_sharer(10, 3)
        directory.remove_sharer(10, 3)
        assert not directory.is_cached(10)
        assert len(directory) == 0

    def test_remove_absent_sharer_is_noop(self):
        directory = Directory(4)
        directory.remove_sharer(10, 1)
        assert not directory.is_cached(10)

    def test_set_exclusive_returns_others(self):
        directory = Directory(4)
        for core in (0, 1, 3):
            directory.add_sharer(10, core)
        others = directory.set_exclusive(10, 1)
        assert others == 0b1001
        assert directory.sharers(10) == 0b10

    def test_set_exclusive_on_uncached_block(self):
        directory = Directory(4)
        assert directory.set_exclusive(10, 2) == 0
        assert directory.sharers(10) == 0b100

    def test_set_exclusive_by_sole_sharer(self):
        directory = Directory(4)
        directory.add_sharer(10, 2)
        assert directory.set_exclusive(10, 2) == 0
        assert directory.sharers(10) == 0b100

    def test_remove_after_set_exclusive_drops_entry(self):
        directory = Directory(4)
        directory.set_exclusive(10, 2)
        directory.remove_sharer(10, 2)
        assert not directory.is_cached(10)

    def test_clear_block_returns_mask(self):
        directory = Directory(4)
        directory.add_sharer(10, 0)
        directory.add_sharer(10, 2)
        assert directory.clear_block(10) == 0b101
        assert not directory.is_cached(10)

    def test_clear_uncached_block(self):
        assert Directory(4).clear_block(99) == 0

    def test_iter_cores(self):
        directory = Directory(8)
        assert list(directory.iter_cores(0b1011)) == [0, 1, 3]
        assert list(directory.iter_cores(0)) == []

    def test_entries_snapshot(self):
        directory = Directory(2)
        directory.add_sharer(5, 0)
        directory.add_sharer(6, 1)
        assert sorted(directory.entries()) == [(5, 0b01), (6, 0b10)]

    def test_rejects_zero_cores(self):
        with pytest.raises(SimulationError):
            Directory(0)
