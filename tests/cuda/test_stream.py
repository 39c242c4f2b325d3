"""Tests for CUDA stream ordering and overlap semantics.

An operation is enqueued as its generator, created by the caller and not
yet started: the stream's pump runs it in order."""

import pytest

from repro.cuda import CudaContext, Stream
from repro.cuda.kernels import KernelSpec
from repro.hardware import build_multi_gpu_node
from repro.sim import Environment


def timed_op(env, duration, log, tag):
    def op():
        yield env.timeout(duration)
        log.append((tag, env.now))
    return op()


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


def test_generator_operations_run_in_enqueue_order():
    """Generators are created at enqueue, but each starts only once the
    one before it finished."""
    env = Environment()
    s = Stream(env)
    log = []

    def op(tag, duration):
        log.append((tag, "start", env.now))
        yield env.timeout(duration)
        log.append((tag, "end", env.now))

    for tag, duration in (("a", 2), ("b", 1), ("c", 3)):
        s.enqueue(op(tag, duration))
    assert log == []            # nothing runs before the pump does
    env.run()
    assert log == [("a", "start", 0), ("a", "end", 2),
                   ("b", "start", 2), ("b", "end", 3),
                   ("c", "start", 3), ("c", "end", 6)]


def test_operation_behind_a_failed_one_fails_without_running():
    env = Environment()
    s = Stream(env)
    started = []
    boom = RuntimeError("device fault")

    def failing():
        yield env.timeout(1)
        raise boom

    def later():
        started.append(env.now)
        yield env.timeout(1)

    first = s.enqueue(failing())
    second = s.enqueue(later())
    outcomes = []

    def waiter(ev):
        try:
            yield ev
        except RuntimeError as exc:
            outcomes.append(exc)

    env.process(waiter(first))
    env.process(waiter(second))
    env.run()
    assert outcomes == [boom, boom]     # the same exception, both times
    assert started == []                # the second generator never ran


def test_completion_hook_and_body_run_after_the_device_work():
    env = Environment()
    node = build_multi_gpu_node(env, 1).nodes[0]
    ctx = CudaContext(env, node.gpus[0], node)
    log = []
    spec = KernelSpec(name="k", cost=lambda gpu_spec: 1e-3,
                      func=lambda tag: log.append(("body", tag, env.now)))
    done = ctx.launch(spec, func_args=("x",),
                      on_complete=lambda: log.append(("hook", env.now)))
    copied = ctx.memcpy(1 << 20, "h2d",
                        on_complete=lambda: log.append(("copied", env.now)))
    env.run()
    kernel_end = log[0][2]
    assert kernel_end >= 1e-3           # the body ran after the kernel time
    assert log[:2] == [("body", "x", kernel_end), ("hook", kernel_end)]
    assert log[2][0] == "copied" and log[2][1] > kernel_end
    assert done.processed and copied.processed


def test_depth_gauge_reads_pending_operations_and_zero_when_drained():
    env = Environment()
    s = Stream(env)
    log = []
    name = f"cuda.stream.{s.name}.depth"
    for i in range(3):
        s.enqueue(timed_op(env, 1, log, i))
    assert env.metrics.value(name) == 3
    env.run(until=1.5)                  # first done, second running
    assert env.metrics.value(name) == 1
    env.run()
    snap = env.metrics.snapshot()
    assert snap[name] == 0
    assert snap[f"{name}.high_water"] == 3
