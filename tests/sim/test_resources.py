"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Environment, Resource, SimulationError, Store


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_grants_immediately_when_free():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def proc():
        with res.request() as req:
            yield req
            log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [0]


def test_resource_serializes_at_capacity_one():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def proc(tag):
        with res.request() as req:
            yield req
            log.append((tag, env.now))
            yield env.timeout(10)

    env.process(proc("a"))
    env.process(proc("b"))
    env.process(proc("c"))
    env.run()
    assert log == [("a", 0), ("b", 10), ("c", 20)]


def test_resource_capacity_two_allows_two_concurrent():
    env = Environment()
    res = Resource(env, capacity=2)
    log = []

    def proc(tag):
        with res.request() as req:
            yield req
            log.append((tag, env.now))
            yield env.timeout(10)

    for tag in "abc":
        env.process(proc(tag))
    env.run()
    assert log == [("a", 0), ("b", 0), ("c", 10)]


def test_resource_priority_order():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(5)

    def waiter(tag, prio, delay):
        yield env.timeout(delay)
        with res.request(priority=prio) as req:
            yield req
            log.append(tag)

    env.process(holder())
    env.process(waiter("low", 5, 1))
    env.process(waiter("high", 0, 2))  # arrives later but higher priority
    env.run()
    assert log == ["high", "low"]


def test_resource_count_and_queue_len():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        with res.request() as req:
            yield req
            assert res.count == 1
            yield env.timeout(5)

    def waiter():
        yield env.timeout(1)
        with res.request() as req:
            assert res.queue_len == 1
            yield req

    env.process(holder())
    env.process(waiter())
    env.run()
    assert res.count == 0
    assert res.queue_len == 0


def test_cancel_pending_request():
    """A request withdrawn before its grant — by ``release(req)`` or by
    leaving its ``with`` block — leaves the wait queue and never takes the
    slot; the next waiter is granted when the holder frees it."""
    env = Environment()
    res = Resource(env, capacity=1)
    log = []
    withdrawn = []

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def releaser():
        yield env.timeout(1)
        req = res.request()
        assert res.queue_len == 1
        yield env.timeout(1)
        res.release(req)
        assert res.queue_len == 0
        withdrawn.append(req)
        log.append("released")

    def leaver():
        yield env.timeout(3)
        with res.request() as req:
            assert res.queue_len == 1
            yield env.timeout(1)
        assert res.queue_len == 0
        withdrawn.append(req)
        log.append("left")

    def other():
        yield env.timeout(5)
        with res.request() as req:
            assert res.queue_len == 1
            yield req
            log.append(("other", env.now))

    env.process(holder())
    env.process(releaser())
    env.process(leaver())
    env.process(other())
    env.run()
    # With both withdrawn, "other" is the only waiter and gets the slot at
    # t=10; neither withdrawn request was ever granted.
    assert log == ["released", "left", ("other", 10)]
    assert not any(req.triggered for req in withdrawn)
    assert res.count == 0 and res.queue_len == 0


def test_double_release_is_noop():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc():
        req = res.request()
        yield req
        res.release(req)
        res.release(req)  # idempotent

    env.process(proc())
    env.run()
    assert res.count == 0


def test_store_put_then_get():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append(item)

    store.put("x")
    env.process(consumer())
    env.run()
    assert got == ["x"]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, env.now))

    def producer():
        yield env.timeout(5)
        store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [("late", 5)]


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        for _ in range(3):
            got.append((yield store.get()))

    for item in [1, 2, 3]:
        store.put(item)
    env.process(consumer())
    env.run()
    assert got == [1, 2, 3]


def test_store_len():
    env = Environment()
    store = Store(env)
    assert len(store) == 0
    store.put(1)
    store.put(2)
    assert len(store) == 2


def test_store_multiple_getters_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(tag):
        item = yield store.get()
        got.append((tag, item))

    env.process(consumer("a"))
    env.process(consumer("b"))

    def producer():
        yield env.timeout(1)
        store.put(1)
        store.put(2)

    env.process(producer())
    env.run()
    assert got == [("a", 1), ("b", 2)]
