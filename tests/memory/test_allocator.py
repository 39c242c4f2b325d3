"""Tests for BytePool (device memory and pinned staging pools)."""

import pytest

from repro.memory import BytePool
from repro.sim import Environment


def test_pool_capacity_validated():
    env = Environment()
    with pytest.raises(ValueError):
        BytePool(env, capacity=0)


def test_acquire_release_roundtrip():
    env = Environment()
    pool = BytePool(env, capacity=100)
    leases = []

    def proc():
        lease = yield pool.acquire(60)
        leases.append(lease)
        assert pool.bytes_used == 60
        lease.release()
        assert pool.bytes_used == 0

    env.process(proc())
    env.run()
    assert len(leases) == 1


def test_acquire_blocks_until_release():
    env = Environment()
    pool = BytePool(env, capacity=100)
    log = []

    def first():
        lease = yield pool.acquire(80)
        yield env.timeout(5)
        lease.release()

    def second():
        lease = yield pool.acquire(80)
        log.append(env.now)
        lease.release()

    env.process(first())
    env.process(second())
    env.run()
    assert log == [5]


def test_oversized_request_rejected_immediately():
    env = Environment()
    pool = BytePool(env, capacity=100)
    with pytest.raises(ValueError):
        pool.acquire(101)
    with pytest.raises(ValueError):
        pool.acquire(0)


def test_fifo_no_starvation_of_big_request():
    """A large request at the head is not bypassed by small ones."""
    env = Environment()
    pool = BytePool(env, capacity=100)
    order = []

    def holder():
        lease = yield pool.acquire(60)
        yield env.timeout(10)
        lease.release()

    def big():
        yield env.timeout(1)
        lease = yield pool.acquire(100)
        order.append(("big", env.now))
        yield env.timeout(1)
        lease.release()

    def small():
        yield env.timeout(2)
        lease = yield pool.acquire(10)
        order.append(("small", env.now))
        lease.release()

    env.process(holder())
    env.process(big())
    env.process(small())
    env.run()
    assert order[0][0] == "big"
    assert order == [("big", 10), ("small", 11)]


def test_double_release_is_noop():
    env = Environment()
    pool = BytePool(env, capacity=100)
    lease = pool.acquire(50).value    # granted at once: bytes are free
    lease.release()
    lease.release()
    assert pool.bytes_used == 0


def test_peak_usage_tracked():
    env = Environment()
    pool = BytePool(env, capacity=100)
    a = pool.acquire(40).value
    b = pool.acquire(50).value
    a.release()
    b.release()
    assert pool.peak_usage == 90
