"""Unit tests for simulated processes."""

import pytest

from repro.sim import Environment, SimulationError


def test_process_runs_to_completion():
    env = Environment()
    steps = []

    def proc():
        steps.append("start")
        yield env.timeout(1)
        steps.append("middle")
        yield env.timeout(1)
        steps.append("end")

    env.process(proc())
    env.run()
    assert steps == ["start", "middle", "end"]
    assert env.now == 2


def test_process_return_value_becomes_event_value():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return 99

    p = env.process(proc())
    env.run()
    assert p._value == 99


def test_process_waits_on_other_process():
    env = Environment()
    log = []

    def child():
        yield env.timeout(5)
        log.append("child done")
        return "result"

    def parent():
        c = env.process(child())
        value = yield c
        log.append(f"parent got {value}")

    env.process(parent())
    env.run()
    assert log == ["child done", "parent got result"]


def test_waiting_on_finished_process_resumes_immediately():
    env = Environment()
    log = []

    def child():
        yield env.timeout(1)
        return "early"

    def parent(c):
        yield env.timeout(10)
        value = yield c
        log.append((env.now, value))

    c = env.process(child())
    env.process(parent(c))
    env.run()
    assert log == [(10, "early")]


def test_process_exception_propagates_to_waiter():
    env = Environment()
    caught = []

    def child():
        yield env.timeout(1)
        raise KeyError("child blew up")

    def parent():
        try:
            yield env.process(child())
        except KeyError as exc:
            caught.append(str(exc))

    env.process(parent())
    env.run()
    assert caught == ["'child blew up'"]


def test_unwaited_process_exception_surfaces_from_run():
    env = Environment()

    def proc():
        yield env.timeout(1)
        raise RuntimeError("unobserved crash")

    env.process(proc())
    with pytest.raises(RuntimeError, match="unobserved crash"):
        env.run()


def test_process_rejects_non_generator():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process(lambda: None)


def test_yielding_non_event_is_an_error():
    env = Environment()

    def proc():
        yield 42

    env.process(proc())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_many_processes_interleave_deterministically():
    env = Environment()
    order = []

    def proc(tag, delay):
        yield env.timeout(delay)
        order.append(tag)
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc("a", 1))
    env.process(proc("b", 2))
    env.process(proc("c", 3))
    env.run()
    # Simultaneous events fire in event-creation order: b's first timeout was
    # created at t=0, before a's second timeout (created at t=1), so at t=2
    # b runs before a.
    assert order == ["a", "b", "a", "c", "b", "c"]


def test_process_chain_without_delays_runs_same_instant():
    env = Environment()
    log = []

    def inner():
        log.append("inner")
        return "x"
        yield  # pragma: no cover - makes this a generator

    def outer():
        value = yield env.process(inner())
        log.append(f"outer {value}")

    env.process(outer())
    env.run()
    assert log == ["inner", "outer x"]
    assert env.now == 0
