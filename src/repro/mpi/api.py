"""Simulated MPI for the paper's MPI+CUDA baselines.

Ranks are simulated processes, one per cluster node.  The subset implemented
is what SUMMA matmul, STREAM, Perlin and N-Body need: blocking Send/Recv,
Bcast, Allgather, Barrier, plus non-blocking Isend/Irecv.  All transfers run
over the same :class:`~repro.hardware.network.Network` as the OmpSs runtime,
so the comparison is apples-to-apples.

The API follows mpi4py conventions (capitalized = buffer-style with explicit
byte counts); communication carries both simulated wire time and, in
functional mode, the actual NumPy payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..hardware.network import Network
from ..sim import Environment, Event, Store

__all__ = ["Communicator", "MPIWorld"]


@dataclass
class _Message:
    """An in-flight message buffered at the receiver (eager protocol)."""

    src: int
    tag: int
    payload: Any
    nbytes: int


class Communicator:
    """One rank's view of the world (like an ``MPI_COMM_WORLD`` handle)."""

    def __init__(self, world: "MPIWorld", rank: int):
        self.world = world
        self.rank = rank

    # -- mpi4py-style accessors ------------------------------------------
    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.world.size

    @property
    def env(self) -> Environment:
        return self.world.env

    # -- point to point -----------------------------------------------------
    def Send(self, payload: Any, nbytes: int, dest: int, tag: int = 0):
        """Process generator: blocking send.

        Eager protocol: completes once the wire transfer finishes and the
        message is buffered at the receiver (no rendezvous with the Recv).
        """
        yield self.world._send(self.rank, dest, tag, payload, nbytes)

    def Isend(self, payload: Any, nbytes: int, dest: int, tag: int = 0) -> Event:
        """Non-blocking send; returns a request event (wait for completion)."""
        return self.world._send(self.rank, dest, tag, payload, nbytes)

    def Recv(self, source: int, tag: int = 0):
        """Process generator: blocking receive; returns the payload."""
        msg = yield self.world._recv(self.rank, source, tag)
        return msg.payload

    def Irecv(self, source: int, tag: int = 0) -> Event:
        """Non-blocking receive; the event's value is the payload."""
        ev = Event(self.env)

        def waiter():
            msg = yield self.world._recv(self.rank, source, tag)
            ev.succeed(msg.payload)

        self.env.process(waiter())
        return ev

    # -- collectives -----------------------------------------------------------
    def Barrier(self):
        """Process generator: synchronize all ranks (tree-free rendezvous)."""
        yield self.world._barrier_arrive(self.rank)

    def Bcast(self, payload: Any, nbytes: int, root: int = 0):
        """Process generator: broadcast from root; returns the payload."""
        if self.rank == root:
            for dst in range(self.world.size):
                if dst != root:
                    yield self.world._send(root, dst, _BCAST_TAG, payload,
                                           nbytes)
            return payload
        msg = yield self.world._recv(self.rank, root, _BCAST_TAG)
        return msg.payload

    def Allgather(self, payload: Any, nbytes: int) -> "Any":
        """Process generator: every rank contributes; returns list of all
        contributions indexed by rank (ring algorithm wire pattern)."""
        size = self.world.size
        result: list[Any] = [None] * size
        result[self.rank] = payload
        if size == 1:
            return result
        # Ring: size-1 steps; each step send to right, receive from left.
        right = (self.rank + 1) % size
        left = (self.rank - 1) % size
        current = payload
        current_owner = self.rank
        for _step in range(size - 1):
            send_req = self.Isend(current, nbytes, right, tag=_GATHER_TAG)
            msg = yield self.world._recv(self.rank, left, _GATHER_TAG)
            yield send_req
            current = msg.payload
            current_owner = (current_owner - 1) % size
            result[current_owner] = current
        return result


_BCAST_TAG = -2
_GATHER_TAG = -3


class MPIWorld:
    """The communicator factory plus the matching/wire machinery."""

    def __init__(self, env: Environment, network: Network):
        self.env = env
        self.network = network
        self.size = len(network.nodes)
        self._mailboxes: dict[tuple[int, int, int], Store] = {}
        self._barrier_waiters: list[Event] = []
        self.messages_sent = 0
        self.bytes_sent = 0

    def comm(self, rank: int) -> Communicator:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range for size {self.size}")
        return Communicator(self, rank)

    # -- internals ---------------------------------------------------------
    def _mailbox(self, dst: int, src: int, tag: int) -> Store:
        key = (dst, src, tag)
        box = self._mailboxes.get(key)
        if box is None:
            box = Store(self.env, name=f"mpi{key}")
            self._mailboxes[key] = box
        return box

    def _send(self, src: int, dst: int, tag: int, payload: Any,
              nbytes: int) -> Event:
        if not 0 <= dst < self.size:
            raise ValueError(f"bad destination rank {dst}")
        self.messages_sent += 1
        self.bytes_sent += nbytes
        msg = _Message(src=src, tag=tag, payload=payload, nbytes=nbytes)

        def wire():
            yield self.env.process(self.network.transfer(
                self.network.nodes[src], self.network.nodes[dst], nbytes))
            self._mailbox(dst, src, tag).put(msg)

        return self.env.process(wire())

    def _recv(self, dst: int, src: int, tag: int) -> Event:
        ev = Event(self.env)

        def take():
            msg = yield self._mailbox(dst, src, tag).get()
            ev.succeed(msg)

        self.env.process(take())
        return ev

    def _barrier_arrive(self, rank: int) -> Event:
        ev = Event(self.env)
        self._barrier_waiters.append(ev)
        if len(self._barrier_waiters) == self.size:
            waiters, self._barrier_waiters = self._barrier_waiters, []
            # Charge one fabric latency for the release wave.
            def release():
                yield self.env.timeout(self.network.nic.latency)
                for w in waiters:
                    w.succeed()
            self.env.process(release())
        return ev
