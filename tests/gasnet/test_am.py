"""Tests for the active message layer."""

import pytest

from repro.gasnet import AMLayer, SHORT_SIZE
from repro.hardware import build_gpu_cluster
from repro.sim import Environment


def make_am(num_nodes=2):
    env = Environment()
    machine = build_gpu_cluster(env, num_nodes=num_nodes)
    return env, AMLayer(env, machine.network), machine


def test_short_message_invokes_handler():
    env, am, _m = make_am()
    received = []
    am.endpoint(1).register("ping", lambda src, x: received.append((src, x)))

    def proc():
        yield am.request(0, 1, "ping", 42)

    env.process(proc())
    env.run()
    assert received == [(0, 42)]
    assert env.metrics.value("am.short_sent") == 1
    assert env.metrics.value("am.bytes_sent") == SHORT_SIZE


def test_handler_completion_event_waits_for_generator_handler():
    env, am, _m = make_am()
    log = []

    def slow_handler(src):
        yield env.timeout(5)
        log.append(("handled", env.now))
        return "reply-value"

    am.endpoint(1).register("slow", slow_handler)

    def proc():
        result = yield am.request(0, 1, "slow")
        log.append(("done", env.now, result))

    env.process(proc())
    env.run()
    assert log[0] == ("handled", pytest.approx(log[0][1]))
    assert log[1][2] == "reply-value"
    assert log[1][1] >= 5


def test_long_message_charges_payload_bytes():
    env, am, m = make_am()
    am.endpoint(1).register("data", lambda src: None)

    def proc():
        yield am.request(0, 1, "data", payload_bytes=10**8)

    env.process(proc())
    env.run()
    wire = m.network.nic.latency + 10**8 / m.network.nic.bandwidth
    assert env.now >= wire
    assert env.metrics.value("am.long_sent") == 1


def test_duplicate_handler_rejected():
    _env, am, _m = make_am()
    am.endpoint(0).register("h", lambda src: None)
    with pytest.raises(ValueError):
        am.endpoint(0).register("h", lambda src: None)


def test_unknown_handler_raises():
    env, am, _m = make_am()

    def proc():
        yield am.request(0, 1, "ghost")

    env.process(proc())
    with pytest.raises(KeyError, match="ghost"):
        env.run()


def test_am_traffic_contends_with_itself_on_nic():
    env, am, m = make_am(num_nodes=3)
    done = []
    am.endpoint(1).register("bulk", lambda src: None)
    am.endpoint(2).register("bulk", lambda src: None)

    def send(dst):
        yield am.request(0, dst, "bulk", payload_bytes=10**8)
        done.append(env.now)

    env.process(send(1))
    env.process(send(2))
    env.run()
    one = 10**8 / m.network.nic.bandwidth
    # Second message had to wait for the first on node 0's tx port.
    assert max(done) >= 2 * one
