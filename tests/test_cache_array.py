"""Unit + property tests for the set-associative cache array."""

import pytest
from hypothesis import given, strategies as st

from repro.coherence.tbe import TBETable
from repro.memory.cache_array import CacheArray


def test_allocate_and_lookup():
    cache = CacheArray(4, 2)
    entry = cache.allocate(0x1000, "S")
    assert cache.lookup(0x1000) is entry
    assert cache.lookup(0x1001) is entry  # same block
    assert 0x1000 in cache
    assert cache.lookup(0x2000) is None


def test_double_allocate_rejected():
    cache = CacheArray(4, 2)
    cache.allocate(0x1000, "S")
    with pytest.raises(ValueError):
        cache.allocate(0x1020, "S")  # same block


def test_set_full_rejected():
    cache = CacheArray(1, 2)
    cache.allocate(0x0, "S")
    cache.allocate(0x40, "S")
    assert cache.is_set_full(0x80)
    with pytest.raises(ValueError):
        cache.allocate(0x80, "S")


def test_lru_victim_selection():
    cache = CacheArray(1, 3)
    cache.allocate(0x0, "S")
    cache.allocate(0x40, "S")
    cache.allocate(0x80, "S")
    cache.lookup(0x0)  # touch 0x0 so 0x40 is LRU
    assert cache.victim(0xC0).addr == 0x40


def test_lookup_without_touch_preserves_lru():
    cache = CacheArray(1, 2)
    cache.allocate(0x0, "S")
    cache.allocate(0x40, "S")
    cache.lookup(0x0, touch=False)
    assert cache.victim(0x80).addr == 0x0


def test_deallocate():
    cache = CacheArray(4, 2)
    cache.allocate(0x1000, "S")
    cache.deallocate(0x1000)
    assert cache.lookup(0x1000) is None
    with pytest.raises(KeyError):
        cache.deallocate(0x1000)


def test_fill_room_and_stable_victim_respect_open_transactions():
    cache = CacheArray(2, 2)  # 0x000, 0x080, 0x100, 0x200 share set 0
    tbes = TBETable()
    cache.allocate(0x000, "S")
    cache.allocate(0x080, "S")
    assert cache.fill_room(0x100, tbes) == 0
    assert cache.stable_victim(0x100, tbes).addr == 0x000  # LRU
    tbes.allocate(0x000, "busy")
    assert cache.stable_victim(0x100, tbes).addr == 0x080, "mid-transaction entry skipped"
    tbes.allocate(0x080, "busy")
    assert cache.stable_victim(0x100, tbes) is None
    cache.deallocate(0x000)
    assert cache.fill_room(0x100, tbes) == 1
    tbes.allocate(0x100, "fill").meta["needs_slot"] = True
    assert cache.fill_room(0x200, tbes) == 0, "the free way is promised to a fill"
    assert cache.fill_room(0x040, tbes) == 2, "other sets are untouched"


def test_set_indexing_disjoint():
    cache = CacheArray(2, 1)
    cache.allocate(0x0, "S")  # set 0
    cache.allocate(0x40, "S")  # set 1
    assert cache.occupancy() == 2  # different sets, no conflict


def test_capacity_properties():
    cache = CacheArray(8, 4, block_size=64)
    assert cache.capacity_blocks == 32
    assert cache.capacity_bytes == 2048


def test_non_power_of_two_sets_rejected():
    with pytest.raises(ValueError):
        CacheArray(3, 2)


@given(st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=200))
def test_occupancy_never_exceeds_capacity(block_indices):
    """Random fill/evict traffic: per-set occupancy stays within assoc and
    the LRU victim is always the least-recently-used untouched entry."""
    cache = CacheArray(2, 2)
    for index in block_indices:
        addr = index * 64
        if cache.lookup(addr) is not None:
            continue
        if cache.is_set_full(addr):
            cache.deallocate(cache.victim(addr).addr)
        cache.allocate(addr, "V")
        assert cache.occupancy() <= cache.capacity_blocks
    per_set = {}
    for entry in cache.entries():
        per_set[cache.set_index(entry.addr)] = per_set.get(cache.set_index(entry.addr), 0) + 1
    assert all(count <= 2 for count in per_set.values())


@given(st.lists(st.integers(min_value=0, max_value=7), min_size=3, max_size=50))
def test_victim_is_least_recently_used(touches):
    cache = CacheArray(1, 4)
    last_use = {}
    clock = 0
    for index in touches:
        addr = index * 64
        clock += 1
        if cache.lookup(addr) is not None:
            last_use[addr] = clock
            continue
        if cache.is_set_full(addr):
            victim = cache.victim(addr)
            expected = min(last_use, key=last_use.get)
            assert victim.addr == expected
            cache.deallocate(victim.addr)
            del last_use[victim.addr]
        cache.allocate(addr, "V")
        last_use[addr] = clock
