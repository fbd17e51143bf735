"""Tests for the private LRU cache level."""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.cache.private import PrivateCache
from repro.common.config import CacheGeometry


def tiny_cache(sets=2, ways=2):
    return PrivateCache(CacheGeometry(sets * ways * 64, ways))


class TestAccessAndFill:
    def test_miss_does_not_allocate(self):
        cache = tiny_cache()
        assert not cache.access(0)
        assert not cache.contains(0)

    def test_fill_then_hit(self):
        cache = tiny_cache()
        cache.fill(0)
        assert cache.access(0)

    def test_lru_eviction_order(self):
        cache = tiny_cache(sets=1, ways=2)
        cache.fill(0)
        cache.fill(1)
        evicted = cache.fill(2)  # set full; 0 is LRU
        assert evicted == 0
        assert cache.contains(1)
        assert cache.contains(2)

    def test_hit_refreshes_recency(self):
        cache = tiny_cache(sets=1, ways=2)
        cache.fill(0)
        cache.fill(1)
        cache.access(0)          # 1 becomes LRU
        assert cache.fill(2) == 1

    def test_fill_resident_block_refreshes_without_eviction(self):
        cache = tiny_cache(sets=1, ways=2)
        cache.fill(0)
        cache.fill(1)
        assert cache.fill(0) is None  # refresh, not duplicate
        assert cache.fill(2) == 1     # 1 was LRU after the refresh

    def test_blocks_map_to_sets_by_low_bits(self):
        cache = tiny_cache(sets=2, ways=1)
        cache.fill(0)      # set 0
        cache.fill(1)      # set 1
        assert cache.fill(2) == 0   # block 2 -> set 0 evicts block 0
        assert cache.contains(1)

    def test_fill_below_capacity_never_evicts(self):
        cache = tiny_cache(sets=2, ways=4)
        for block in range(8):
            assert cache.fill(block) is None


class TestInvalidate:
    def test_invalidate_resident(self):
        cache = tiny_cache()
        cache.fill(0)
        assert cache.invalidate(0)
        assert not cache.contains(0)

    def test_invalidate_absent(self):
        assert not tiny_cache().invalidate(0)

    def test_invalidate_frees_way(self):
        cache = tiny_cache(sets=1, ways=2)
        cache.fill(0)
        cache.fill(1)
        cache.invalidate(0)
        assert cache.fill(2) is None  # way freed, no eviction


class TestHelpers:
    def test_resident_blocks(self):
        cache = tiny_cache()
        cache.fill(0)
        cache.fill(1)
        assert sorted(cache.resident_blocks()) == [0, 1]

    def test_contains_does_not_touch_recency(self):
        cache = tiny_cache(sets=1, ways=2)
        cache.fill(0)
        cache.fill(1)
        cache.contains(0)             # must NOT promote block 0
        assert cache.fill(2) == 0

    def test_repr(self):
        assert "l1" in repr(PrivateCache(CacheGeometry(512, 4), name="l1"))


class ReferenceLru:
    """Oracle model: per-set OrderedDict LRU."""

    def __init__(self, num_sets, ways):
        self.num_sets, self.ways = num_sets, ways
        self.sets = [OrderedDict() for __ in range(num_sets)]

    def access(self, block):
        s = self.sets[block % self.num_sets]
        if block in s:
            s.move_to_end(block)
            return True
        return False

    def fill(self, block):
        s = self.sets[block % self.num_sets]
        if block in s:
            s.move_to_end(block)
            return None
        s[block] = True
        if len(s) > self.ways:
            return s.popitem(last=False)[0]
        return None


@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=30)),
        max_size=200,
    )
)
def test_matches_reference_lru_model(operations):
    """Differential test against an OrderedDict-based LRU oracle."""
    cache = tiny_cache(sets=2, ways=3)
    reference = ReferenceLru(2, 3)
    for is_fill, block in operations:
        if is_fill:
            assert cache.fill(block) == reference.fill(block)
        else:
            assert cache.access(block) == reference.access(block)
    assert sorted(cache.resident_blocks()) == sorted(
        block for s in reference.sets for block in s
    )
