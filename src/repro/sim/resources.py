"""Shared resources for simulated processes.

* :class:`Resource` — counted resource (e.g. a GPU engine, a link) with FIFO
  or priority queuing.
* :class:`Store` — unbounded FIFO of items (e.g. a task queue, a mailbox).
"""

from __future__ import annotations

import heapq
from typing import Any

from .core import Event, SimulationError

__all__ = ["Resource", "Request", "Store"]


class Request(Event):
    """Pending acquisition of a :class:`Resource` slot.

    Usable as a context manager::

        with resource.request() as req:
            yield req
            ... hold the resource ...
        # released on exit
    """

    __slots__ = ("resource", "priority", "_key")

    def __init__(self, resource: "Resource", priority: int = 0):
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self._key = None

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)


class Resource:
    """A resource with ``capacity`` slots, granted in priority+FIFO order."""

    def __init__(self, env, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._users: set[Request] = set()
        self._waiting: list[tuple[int, int, Request]] = []
        self._seq = 0

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_len(self) -> int:
        return len(self._waiting)

    def request(self, priority: int = 0) -> Request:
        req = Request(self, priority)
        if len(self._users) < self.capacity and not self._waiting:
            # Uncontended grant: hand back an already-processed event, so a
            # process yielding it continues inline instead of taking a full
            # schedule/resume round-trip through the event queue.  (The
            # contended path below is unchanged: the grant happens inside
            # release(), and waiters wake through the queue as always.)
            self._users.add(req)
            req._value = self
            req._ok = True
            req._scheduled = True
            req._processed = True
            req.callbacks = None
        else:
            self._seq += 1
            entry = (priority, self._seq, req)
            req._key = entry
            heapq.heappush(self._waiting, entry)
        return req

    def release(self, request: Request) -> None:
        """Free a held slot, or withdraw a request still waiting for one."""
        if request in self._users:
            self._users.remove(request)
            self._grant_next()
        elif request._key is not None:
            self._cancel(request)
        # Releasing an unknown request is a no-op (idempotent release).

    def _cancel(self, request: Request) -> None:
        if request._key is None:
            return
        try:
            self._waiting.remove(request._key)
            heapq.heapify(self._waiting)
        except ValueError:
            pass
        request._key = None

    def _grant_next(self) -> None:
        while self._waiting and len(self._users) < self.capacity:
            _prio, _seq, req = heapq.heappop(self._waiting)
            req._key = None
            if req.triggered:  # cancelled/failed elsewhere
                continue
            self._users.add(req)
            req.succeed(self)


class Store:
    """Unbounded FIFO of items with blocking :meth:`get`.

    ``put`` never blocks (capacity is unbounded — back-pressure in the
    reproduction is modelled explicitly where the paper's system has it).
    """

    def __init__(self, env, name: str = ""):
        self.env = env
        self.name = name
        self.items: list[Any] = []
        self._getters: list[Event] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        self.items.append(item)
        self._serve()

    def get(self) -> Event:
        """Event that fires with the next item once one is available."""
        ev = Event(self.env)
        self._getters.append(ev)
        self._serve()
        return ev

    def _serve(self) -> None:
        while self.items and self._getters:
            getter = self._getters.pop(0)
            if getter.triggered:
                continue
            getter.succeed(self.items.pop(0))
