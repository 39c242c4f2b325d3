"""Memory pools: device allocations and the pinned staging pool.

The paper (Section III.D.2) pre-allocates both GPU memory and page-locked
host memory at startup and manages them inside the runtime, "to avoid
unnecessary calls to the CUDA runtime" and to enable transfer/compute
overlap.  :class:`BytePool` models such a pre-allocated pool: acquisitions
block (in simulated time) until enough bytes are free.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import Environment, Event

__all__ = ["BytePool", "PoolLease"]


@dataclass
class PoolLease:
    """An outstanding allocation from a :class:`BytePool`."""

    pool: "BytePool"
    nbytes: int
    released: bool = False

    def release(self) -> None:
        if not self.released:
            self.released = True
            self.pool._release(self.nbytes)


class BytePool:
    """A counting pool of bytes with FIFO blocking acquisition."""

    def __init__(self, env: Environment, capacity: int, name: str = ""):
        if capacity <= 0:
            raise ValueError("pool capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.bytes_used = 0
        self._waiters: list[tuple[int, Event]] = []
        self.peak_usage = 0

    def acquire(self, nbytes: int) -> Event:
        """Event that fires with a :class:`PoolLease` once bytes are free."""
        if nbytes <= 0:
            raise ValueError(f"acquire needs a positive size, got {nbytes}")
        if nbytes > self.capacity:
            raise ValueError(
                f"request of {nbytes}B exceeds pool {self.name!r} capacity "
                f"{self.capacity}B"
            )
        ev = Event(self.env)
        self._waiters.append((nbytes, ev))
        self._grant()
        return ev

    def _release(self, nbytes: int) -> None:
        self.bytes_used -= nbytes
        assert self.bytes_used >= 0, "pool accounting went negative"
        if self._waiters:
            self._grant()

    def _grant(self) -> None:
        # FIFO: head-of-line blocking is intentional (a big request is not
        # starved by a stream of small ones).
        while self._waiters:
            nbytes, ev = self._waiters[0]
            if ev.triggered:
                self._waiters.pop(0)
                continue
            if nbytes > self.capacity - self.bytes_used:
                return
            self._waiters.pop(0)
            self.bytes_used += nbytes
            if self.bytes_used > self.peak_usage:
                self.peak_usage = self.bytes_used
            ev.succeed(PoolLease(self, nbytes))
