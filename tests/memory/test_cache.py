"""Tests for the software cache state machine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import (
    CacheCapacityError,
    CachePolicy,
    DataObject,
    DeviceSpace,
    Region,
    SoftwareCache,
)


def make_cache(capacity=1000, policy="wb"):
    space = DeviceSpace("gpu0", 0, 0, functional=False)
    return SoftwareCache(space, capacity=capacity, policy=policy)


def count(cache, what):
    return cache.metrics.value(f"cache.{cache.space.name}.{what}")


def obj_region(nbytes, name="x"):
    # float32 -> 4 bytes/element
    assert nbytes % 4 == 0
    return DataObject(name=name, num_elements=nbytes // 4,
                      dtype=np.float32).whole


def test_policy_parsing():
    assert CachePolicy.parse("wb") is CachePolicy.WRITE_BACK
    assert CachePolicy.parse("wt") is CachePolicy.WRITE_THROUGH
    assert CachePolicy.parse("nocache") is CachePolicy.NO_CACHE
    assert CachePolicy.parse(CachePolicy.WRITE_BACK) is CachePolicy.WRITE_BACK
    with pytest.raises(ValueError, match="unknown cache policy"):
        CachePolicy.parse("lru")


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        make_cache(capacity=0)


def test_miss_then_hit():
    cache = make_cache()
    r = obj_region(400)
    assert not cache.lookup(r)
    cache.insert(r)
    assert cache.lookup(r)
    assert count(cache, "hits") == 1
    assert count(cache, "misses") == 1


def test_insert_accounts_bytes():
    cache = make_cache(capacity=1000)
    r = obj_region(400)
    cache.insert(r)
    assert cache.bytes_used == 400
    assert cache.bytes_free == 600


def test_insert_beyond_free_space_rejected():
    cache = make_cache(capacity=1000)
    cache.insert(obj_region(800, "a"))
    with pytest.raises(CacheCapacityError):
        cache.insert(obj_region(400, "b"))


def test_reinsert_refreshes_and_merges_dirty():
    cache = make_cache()
    r = obj_region(400)
    cache.insert(r, dirty=True)
    ent = cache.insert(r, dirty=False)
    assert ent.dirty  # dirty is sticky until cleaned
    assert cache.bytes_used == 400  # not double-counted


def test_choose_victims_lru_order():
    cache = make_cache(capacity=1200)
    ra, rb, rc = (obj_region(400, n) for n in "abc")
    cache.insert(ra)
    cache.insert(rb)
    cache.insert(rc)
    cache.lookup(ra)  # refresh a: b is now least recently used
    victims = cache.choose_victims(400)
    assert [v.region.key for v in victims] == [rb.key]


def test_choose_victims_skips_pinned():
    cache = make_cache(capacity=800)
    ra, rb = obj_region(400, "a"), obj_region(400, "b")
    cache.insert(ra)
    cache.insert(rb)
    cache.pin(ra)
    victims = cache.choose_victims(400)
    assert [v.region.key for v in victims] == [rb.key]


def test_choose_victims_no_eviction_needed():
    cache = make_cache(capacity=1000)
    cache.insert(obj_region(400))
    assert cache.choose_victims(400) == []


def test_working_set_too_big_raises():
    cache = make_cache(capacity=800)
    ra = obj_region(400, "a")
    cache.insert(ra)
    cache.pin(ra)
    with pytest.raises(CacheCapacityError):
        cache.choose_victims(800)


def test_remove_frees_bytes_and_counts_eviction():
    cache = make_cache()
    r = obj_region(400)
    cache.insert(r)
    cache.remove(r)
    assert cache.bytes_used == 0
    assert count(cache, "evictions") == 1
    assert not cache.has(r)


def test_remove_pinned_entry_rejected():
    cache = make_cache()
    r = obj_region(400)
    cache.insert(r)
    cache.pin(r)
    with pytest.raises(RuntimeError, match="pinned"):
        cache.remove(r)
    assert cache.has(r)  # still present after the failed removal


def test_pin_unpin_balance():
    cache = make_cache()
    r = obj_region(400)
    cache.insert(r)
    cache.pin(r)
    cache.pin(r)
    cache.unpin(r)
    assert not cache.get(r).evictable
    cache.unpin(r)
    assert cache.get(r).evictable
    with pytest.raises(RuntimeError):
        cache.unpin(r)


def test_dirty_tracking_and_writeback_count():
    cache = make_cache()
    r = obj_region(400)
    cache.insert(r)
    cache.mark_dirty(r)
    assert [e.region.key for e in cache.dirty_entries()] == [r.key]
    cache.mark_clean(r)
    assert cache.dirty_entries() == []
    assert count(cache, "writebacks") == 1
    cache.mark_clean(r)  # idempotent
    assert count(cache, "writebacks") == 1


@settings(max_examples=50, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=50), min_size=1,
                      max_size=30))
def test_bytes_used_matches_sum_of_entries(sizes):
    cache = make_cache(capacity=10**9)
    regions = [obj_region(size * 4, name=f"r{i}")
               for i, size in enumerate(sizes)]
    for r in regions:
        cache.insert(r)
    assert cache.bytes_used == sum(s * 4 for s in sizes)
    assert cache.bytes_used == sum(cache.get(r).nbytes for r in regions)


@settings(max_examples=50, deadline=None)
@given(
    capacity_units=st.integers(min_value=10, max_value=100),
    accesses=st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                      max_size=100),
)
def test_cache_never_exceeds_capacity_under_lru_workload(capacity_units,
                                                         accesses):
    """Drive the (lookup -> choose_victims -> remove -> insert) protocol."""
    capacity = capacity_units * 4
    cache = make_cache(capacity=capacity)
    objs = [obj_region(4 * (1 + (i % 5)), name=f"o{i}") for i in range(16)]
    for idx in accesses:
        r = objs[idx]
        if r.nbytes > capacity:
            continue
        if not cache.lookup(r):
            for victim in cache.choose_victims(r.nbytes):
                cache.remove(victim.region)
            cache.insert(r)
        assert cache.bytes_used <= capacity
