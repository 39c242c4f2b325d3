"""Tests for CUDA events."""

import pytest

from repro.cuda import CudaEvent, Stream
from repro.sim import Environment


def timed_op(env, duration):
    def op():
        yield env.timeout(duration)
    return op


def test_event_fires_after_prior_stream_work():
    env = Environment()
    s = Stream(env)
    s.enqueue(timed_op(env, 3.0))
    ev = CudaEvent(env, "after_kernel").record(s)
    done = []

    def waiter():
        yield ev.synchronize()
        done.append(env.now)

    env.process(waiter())
    env.run()
    assert done == [3.0]
    assert ev.completed_at == 3.0


def test_elapsed_between_events():
    env = Environment()
    s = Stream(env)
    start = CudaEvent(env, "start").record(s)
    s.enqueue(timed_op(env, 2.5))
    stop = CudaEvent(env, "stop").record(s)
    env.run()
    assert stop.completed_at - start.completed_at == pytest.approx(2.5)


def test_unrecorded_event_cannot_synchronize():
    env = Environment()
    ev = CudaEvent(env)
    with pytest.raises(RuntimeError, match="never recorded"):
        ev.synchronize()


def test_event_on_empty_stream_fires_immediately():
    env = Environment()
    s = Stream(env)
    ev = CudaEvent(env).record(s)
    env.run()
    assert ev.completed_at == 0.0


def test_events_order_within_stream():
    env = Environment()
    s = Stream(env)
    e1 = CudaEvent(env).record(s)
    s.enqueue(timed_op(env, 1.0))
    e2 = CudaEvent(env).record(s)
    s.enqueue(timed_op(env, 1.0))
    e3 = CudaEvent(env).record(s)
    env.run()
    assert e1.completed_at <= e2.completed_at <= e3.completed_at
    assert e3.completed_at - e1.completed_at == pytest.approx(2.0)
