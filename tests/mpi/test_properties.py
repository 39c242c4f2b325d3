"""Property tests for the simulated MPI collectives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import build_gpu_cluster
from repro.mpi import MPIWorld
from repro.sim import Environment


def make_world(size):
    env = Environment()
    machine = build_gpu_cluster(env, num_nodes=size)
    return env, MPIWorld(env, machine.network)


@settings(max_examples=25, deadline=None)
@given(size=st.integers(min_value=2, max_value=8),
       root=st.integers(min_value=0, max_value=7),
       nbytes=st.integers(min_value=1, max_value=10**6))
def test_bcast_from_any_root(size, root, nbytes):
    root = root % size
    env, world = make_world(size)
    results = {}

    def rank(r):
        data = ("blob", root) if r == root else None
        data = yield from world.comm(r).Bcast(data, nbytes, root=root)
        results[r] = data

    for r in range(size):
        env.process(rank(r))
    env.run()
    assert all(results[r] == ("blob", root) for r in range(size))


@settings(max_examples=20, deadline=None)
@given(size=st.integers(min_value=2, max_value=6),
       messages=st.lists(
           st.tuples(st.integers(0, 5), st.integers(0, 5),
                     st.integers(0, 3)),
           min_size=1, max_size=12))
def test_point_to_point_per_channel_fifo(size, messages):
    """Messages between one (src, dst, tag) channel arrive in send order."""
    env, world = make_world(size)
    sends = [(s % size, d % size, tag) for s, d, tag in messages
             if s % size != d % size]
    if not sends:
        return
    received: dict[tuple, list] = {}

    def sender(r):
        seq = 0
        for s, d, tag in sends:
            if s == r:
                yield from world.comm(r).Send((r, seq), 100, d, tag=tag)
                seq += 1

    def receiver(r):
        incoming = [(s, d, tag) for s, d, tag in sends if d == r]
        by_channel: dict[tuple, int] = {}
        for s, d, tag in incoming:
            by_channel[(s, tag)] = by_channel.get((s, tag), 0) + 1
        for (s, tag), count in by_channel.items():
            for _ in range(count):
                msg = yield from world.comm(r).Recv(source=s, tag=tag)
                received.setdefault((s, r, tag), []).append(msg)

    for r in range(size):
        env.process(sender(r))
        env.process(receiver(r))
    env.run()
    total = sum(len(v) for v in received.values())
    assert total == len(sends)
    # Per (src, dst, tag) channel, sequence numbers are monotone.
    for (s, r, tag), msgs in received.items():
        seqs = [seq for (_src, seq) in msgs]
        assert seqs == sorted(seqs)
