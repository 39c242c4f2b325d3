"""Unit tests for the discrete-event simulation core."""

import pytest

from repro.sim import (
    Environment,
    Event,
    SimulationError,
    Timeout,
)


def test_environment_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_environment_custom_start_time():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(3.5)

    env.process(proc())
    env.run()
    assert env.now == 3.5


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_timeout_carries_value():
    env = Environment()
    got = []

    def proc():
        value = yield env.timeout(1, value="payload")
        got.append(value)

    env.process(proc())
    env.run()
    assert got == ["payload"]


def test_event_succeed_resumes_waiter():
    env = Environment()
    ev = env.event()
    got = []

    def waiter():
        got.append((yield ev))

    def trigger():
        yield env.timeout(2)
        ev.succeed(42)

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert got == [42]
    assert env.now == 2


def test_event_fail_throws_into_waiter():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def trigger():
        yield env.timeout(1)
        ev.fail(ValueError("boom"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10)

    env.process(proc())
    env.run(until=25)
    assert env.now == 25


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc():
        yield env.timeout(4)
        return "done"

    p = env.process(proc())
    result = env.run(until=p)
    assert result == "done"
    assert env.now == 4


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10)
    with pytest.raises(SimulationError):
        env.run(until=5)


def test_run_until_never_triggering_event_reports_deadlock():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=ev)


def test_simultaneous_events_fire_in_fifo_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in range(5):
        env.process(proc(tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_unhandled_failure_surfaces_from_run():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("lost failure"))
    with pytest.raises(RuntimeError, match="lost failure"):
        env.run()


def test_events_compose_with_and_or():
    env = Environment()
    results = []

    def proc():
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")
        got = yield env.all_of((t1, t2))
        results.append(sorted(got.values()))
        t3 = env.timeout(1, value="c")
        t4 = env.timeout(5, value="d")
        got = yield env.any_of((t3, t4))
        results.append(sorted(got.values()))

    env.process(proc())
    env.run()
    assert results == [["a", "b"], ["c"]]
    # AnyOf resolved at t=3 but the losing timeout still drains at t=7.
    assert env.now == 7


def test_event_repr_mentions_state():
    env = Environment()
    ev = env.event()
    assert "pending" in repr(ev)
    ev.succeed()
    assert "triggered" in repr(ev)


def test_timeout_is_event_subclass():
    env = Environment()
    assert isinstance(env.timeout(1), Event)
    assert isinstance(env.timeout(1), Timeout)
