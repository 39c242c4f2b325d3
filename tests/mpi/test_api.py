"""Tests for the simulated MPI library."""

import numpy as np
import pytest

from repro.hardware import build_gpu_cluster
from repro.mpi import MPIWorld
from repro.sim import Environment


def make_world(size=2):
    env = Environment()
    machine = build_gpu_cluster(env, num_nodes=size)
    return env, MPIWorld(env, machine.network), machine


def test_rank_accessors():
    _env, world, _m = make_world(4)
    comm = world.comm(2)
    assert comm.rank == 2
    assert comm.world.size == 4


def test_bad_rank_rejected():
    _env, world, _m = make_world(2)
    with pytest.raises(ValueError):
        world.comm(5)


def test_send_recv_payload_and_timing():
    env, world, m = make_world(2)
    got = []

    def rank0():
        data = np.arange(4, dtype=np.float32)
        yield from world.comm(0).Send(data, nbytes=16, dest=1)

    def rank1():
        data = yield from world.comm(1).Recv(source=0)
        got.append((env.now, data))

    env.process(rank0())
    env.process(rank1())
    env.run()
    assert env.now >= m.network.nic.latency
    np.testing.assert_array_equal(got[0][1], [0, 1, 2, 3])


def test_send_is_eager_recv_blocks():
    """Eager protocol: Send completes at wire time; Recv waits for a match."""
    env, world, m = make_world(2)
    log = []

    def rank0():
        yield env.timeout(10)
        yield from world.comm(0).Send("x", nbytes=8, dest=1)
        log.append(("send done", env.now))

    def rank1():
        yield from world.comm(1).Recv(source=0)
        log.append(("recv done", env.now))

    env.process(rank0())
    env.process(rank1())
    env.run()
    # Send finished without waiting for anything beyond the wire; Recv had to
    # wait from t=0 until the message arrived.
    assert log[0][0] == "send done"
    assert log[1][0] == "recv done"
    assert log[1][1] >= 10 + m.network.nic.latency


def test_tags_disambiguate_messages():
    env, world, _m = make_world(2)
    got = []

    def rank0():
        yield from world.comm(0).Send("tag7", nbytes=8, dest=1, tag=7)
        yield from world.comm(0).Send("tag3", nbytes=8, dest=1, tag=3)

    def rank1():
        # Receive in the opposite tag order.
        m3 = yield from world.comm(1).Recv(source=0, tag=3)
        m7 = yield from world.comm(1).Recv(source=0, tag=7)
        got.extend([m3, m7])

    env.process(rank0())
    env.process(rank1())
    env.run()
    assert got == ["tag3", "tag7"]


def test_barrier_releases_all_at_once():
    env, world, _m = make_world(3)
    times = []

    def rank(r, delay):
        yield env.timeout(delay)
        yield from world.comm(r).Barrier()
        times.append(env.now)

    env.process(rank(0, 1))
    env.process(rank(1, 5))
    env.process(rank(2, 3))
    env.run()
    assert len(times) == 3
    assert all(t == times[0] for t in times)
    assert times[0] >= 5


def test_bcast_delivers_to_all():
    env, world, _m = make_world(4)
    got = []

    def rank(r):
        data = "blob" if r == 0 else None
        data = yield from world.comm(r).Bcast(data, nbytes=1000, root=0)
        got.append((r, data))

    for r in range(4):
        env.process(rank(r))
    env.run()
    assert sorted(got) == [(r, "blob") for r in range(4)]


def test_traffic_statistics():
    env, world, _m = make_world(2)

    def rank0():
        yield from world.comm(0).Send("x", nbytes=1000, dest=1)

    def rank1():
        yield from world.comm(1).Recv(source=0)

    env.process(rank0())
    env.process(rank1())
    env.run()
    assert env.metrics.value("mpi.messages") == 1
    assert env.metrics.value("mpi.bytes") == 1000
