"""Tests for CUDA stream ordering and overlap semantics."""

import pytest

from repro.cuda import Stream
from repro.sim import Environment


def timed_op(env, duration, log, tag):
    def op():
        yield env.timeout(duration)
        log.append((tag, env.now))
    return op


def test_single_stream_executes_in_order():
    env = Environment()
    s = Stream(env)
    log = []
    s.enqueue(timed_op(env, 3, log, "a"))
    s.enqueue(timed_op(env, 1, log, "b"))
    s.enqueue(timed_op(env, 2, log, "c"))
    env.run()
    assert log == [("a", 3), ("b", 4), ("c", 6)]


def test_enqueue_returns_completion_event():
    env = Environment()
    s = Stream(env)
    log = []

    def waiter():
        ev = s.enqueue(timed_op(env, 5, log, "op"))
        yield ev
        log.append(("waited", env.now))

    env.process(waiter())
    env.run()
    assert log == [("op", 5), ("waited", 5)]


def test_two_streams_independent():
    env = Environment()
    s1, s2 = Stream(env), Stream(env)
    log = []
    s1.enqueue(timed_op(env, 3, log, "s1a"))
    s2.enqueue(timed_op(env, 1, log, "s2a"))
    env.run()
    assert ("s2a", 1) in log and ("s1a", 3) in log


def test_synchronize_waits_for_tail():
    env = Environment()
    s = Stream(env)
    log = []
    s.enqueue(timed_op(env, 4, log, "a"))

    def syncer():
        yield s.synchronize()
        log.append(("sync", env.now))

    env.process(syncer())
    env.run()
    assert log == [("a", 4), ("sync", 4)]


def test_synchronize_on_idle_stream_immediate():
    env = Environment()
    s = Stream(env)
    log = []

    def syncer():
        yield s.synchronize()
        log.append(env.now)

    env.process(syncer())
    env.run()
    assert log == [0]


def test_idle_property():
    """An idle stream (nothing enqueued, or all of it done) synchronizes
    at once; a busy one only when its work finishes."""
    env = Environment()
    s = Stream(env)
    assert s.synchronize().triggered
    log = []
    s.enqueue(timed_op(env, 1, log, "x"))
    assert not s.synchronize().triggered
    env.run()
    assert s.synchronize().triggered


def test_op_enqueued_later_still_ordered_after_running_op():
    env = Environment()
    s = Stream(env)
    log = []
    s.enqueue(timed_op(env, 10, log, "long"))

    def late_enqueue():
        yield env.timeout(2)
        s.enqueue(timed_op(env, 1, log, "late"))

    env.process(late_enqueue())
    env.run()
    assert log == [("long", 10), ("late", 11)]


def test_ops_enqueued_counter():
    env = Environment()
    s = Stream(env)
    log = []
    for i in range(3):
        s.enqueue(timed_op(env, 1, log, i))
    assert env.metrics.value(f"cuda.stream.{s.name}.ops") == 3
    env.run()
