"""Edge cases of the simulation engine exercised by the runtime."""

from repro.sim import Environment, Store


def test_process_immediately_returning_generator():
    env = Environment()

    def instant():
        return "now"
        yield  # pragma: no cover - generator marker

    p = env.process(instant())
    env.run()
    assert p.value == "now"


def test_event_succeed_from_callback_of_other_event():
    env = Environment()
    first = env.timeout(1)
    second = env.event()
    first.callbacks.append(lambda _ev: second.succeed("chained"))
    got = []

    def waiter():
        got.append((yield second))

    env.process(waiter())
    env.run()
    assert got == ["chained"]


def test_nested_processes_three_deep():
    env = Environment()

    def level3():
        yield env.timeout(1)
        return 3

    def level2():
        value = yield env.process(level3())
        return value + 10

    def level1():
        value = yield env.process(level2())
        return value + 100

    p = env.process(level1())
    env.run()
    assert p.value == 113


def test_store_interleaved_producers_consumers_deterministic():
    env = Environment()
    store = Store(env)
    got = []

    def producer(tag, delay):
        yield env.timeout(delay)
        store.put(tag)

    def consumer():
        for _ in range(3):
            got.append((yield store.get()))

    env.process(consumer())
    for tag, delay in (("a", 3), ("b", 1), ("c", 2)):
        env.process(producer(tag, delay))
    env.run()
    assert got == ["b", "c", "a"]


def test_zero_delay_timeout_preserves_fifo():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(0)
        order.append(tag)

    for tag in range(4):
        env.process(proc(tag))
    env.run()
    assert order == [0, 1, 2, 3]


def test_run_twice_continues_from_stop_point():
    env = Environment()
    ticks = []

    def clock():
        while True:
            yield env.timeout(10)
            ticks.append(env.now)

    env.process(clock())
    env.run(until=25)
    assert ticks == [10, 20]
    env.run(until=45)
    assert ticks == [10, 20, 30, 40]


def test_failed_event_value_is_exception():
    env = Environment()
    ev = env.event()
    err = RuntimeError("x")
    ev.fail(err)
    assert ev.value is err
    assert not ev.ok
    ev._defused = True  # silence the unhandled-failure check
    env.run()
