"""Deterministic discrete-event simulation core.

The whole reproduction runs on this engine: the Nanos++ runtime threads, GPU
engines, network links and MPI ranks are all simulated processes scheduling
events in virtual time.  The engine is deliberately SimPy-like (generator
based), but self-contained and strictly deterministic: events that fire at the
same instant are ordered by (priority, insertion sequence).

Internally the queue is split into two structures that together implement
one total (time, priority, sequence) order:

* three *immediate lanes* (one FIFO deque per priority) hold events
  scheduled at the current instant — the overwhelmingly common case, since
  every ``succeed()`` and every process bootstrap fires "now";
* a binary heap holds *timed* events (timeouts with a positive delay,
  absolute-time callbacks).

The clock can only advance by popping from the heap, and it may only do so
once every immediate lane is empty — immediate events are by construction
earlier than any strictly-later heap event, so the split never reorders
anything; ``tests/sim/test_event_order.py`` drives random schedules against
a pure-heapq reference to prove it.  The win is that the hot path trades a
heappush+heappop of a 4-tuple for a deque append+popleft.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Iterable, Optional

from ..metrics import CounterRegistry

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "SimulationError",
    "StopSimulation",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "PRIORITY_LOW",
]

#: Scheduling priorities for simultaneous events (lower fires first).
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

#: Sentinel for "event has not been assigned a value yet".
_PENDING = object()


class SimulationError(Exception):
    """Raised for illegal uses of the simulation API."""


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` early."""


class Event:
    """A happening in virtual time that processes can wait on.

    An event goes through three states: *pending* (created), *triggered*
    (given a value and scheduled on the event queue) and *processed* (its
    callbacks have run).  Waiting on an already-processed event is legal and
    resumes the waiter immediately.
    """

    __slots__ = (
        "env", "callbacks", "_value", "_ok", "_scheduled", "_processed",
        "_defused",
    )

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[[Event], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        self._scheduled = False
        self._processed = False
        self._defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self._ok = True
        self.env._schedule(self, priority)
        return self

    def fail(self, exc: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() needs an exception instance")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._value = exc
        self._ok = False
        self.env._schedule(self, priority)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed" if self._processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # Timeouts are born triggered-and-scheduled: initialize and enqueue
        # directly instead of building a pending Event and re-wrapping it
        # through the guarded _schedule path (timeouts are the single most
        # common event, and the guard can never fire for a fresh one).
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self._processed = False
        self._defused = False
        self.delay = delay
        env._seq += 1
        if delay == 0.0:
            env._imm[PRIORITY_NORMAL].append((env._seq, self))
        else:
            heapq.heappush(env._queue,
                           (env._now + delay, PRIORITY_NORMAL, env._seq, self))


class Environment:
    """Owns the virtual clock and the event queue."""

    def __init__(self, initial_time: float = 0.0,
                 metrics: Optional[CounterRegistry] = None):
        self._now = float(initial_time)
        #: the run's counter registry: the hardware, the CUDA streams and
        #: the runtime built over this environment all count into it.
        #: Pass one to share it across runs.
        self.metrics = metrics if metrics is not None else CounterRegistry()
        #: timed events: a heap of (when, priority, seq, event).
        self._queue: list[tuple[float, int, int, Event]] = []
        #: immediate lanes: per-priority FIFOs of (seq, event) scheduled at
        #: the current instant (see the module docstring for the ordering
        #: argument).
        self._imm: tuple[deque, deque, deque] = (deque(), deque(), deque())
        self._seq = 0
        #: total events processed by run() over this environment's
        #: lifetime (the runtime's ``engine.events_processed`` gauge).
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self._now

    # -- event construction ----------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def at(self, when: float, callback: Callable[[], None],
           priority: int = PRIORITY_NORMAL) -> Event:
        """Schedule ``callback()`` at absolute virtual time ``when``.

        Used by layers that plan wall-clock-independent interventions
        (e.g. the fault engine's timed device losses).  Returns the
        underlying event, already triggered — like a :class:`Timeout`.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} (now is {self._now})")
        event = Event(self)
        event.callbacks.append(lambda _ev: callback())
        event._value = None
        event._ok = True
        event._scheduled = True
        self._seq += 1
        heapq.heappush(self._queue, (when, priority, self._seq, event))
        return event

    def process(self, generator) -> "Process":
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> Event:
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> Event:
        return AnyOf(self, list(events))

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, priority: int = PRIORITY_NORMAL,
                  delay: float = 0.0) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        event._scheduled = True
        self._seq += 1
        if delay == 0.0:
            self._imm[priority].append((self._seq, event))
        else:
            heapq.heappush(self._queue,
                           (self._now + delay, priority, self._seq, event))

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (an Event, a time, or queue exhaustion).

        Returns the value of the ``until`` event if one was given.
        """
        stop_at = None
        until_event: Optional[Event] = None
        if isinstance(until, Event):
            until_event = until
            if until_event._processed:
                return until_event.value if until_event._ok else None
            until_event.callbacks.append(self._stop_callback)
        elif until is not None:
            stop_at = float(until)
            if stop_at < self._now:
                raise SimulationError("cannot run into the past")

        # The one event loop, with local aliases: one Python frame per run
        # instead of one per event, and a direct call for the
        # overwhelmingly common single-callback event.  Immediate
        # lanes are drained before the heap may advance the clock; at equal
        # timestamps the (priority, seq) comparison against the heap top
        # keeps the total order identical to a single heap's.
        queue = self._queue
        imm0, imm1, imm2 = self._imm
        heappop = heapq.heappop
        processed = 0
        try:
            while True:
                lane = imm0 or imm1 or imm2
                if lane:
                    if queue:
                        top = queue[0]
                        if top[0] == self._now and (top[1], top[2]) < (
                                0 if lane is imm0 else
                                1 if lane is imm1 else 2, lane[0][0]):
                            event = heappop(queue)[3]
                        else:
                            event = lane.popleft()[1]
                    else:
                        event = lane.popleft()[1]
                elif queue:
                    when = queue[0][0]
                    if stop_at is not None and when > stop_at:
                        self._now = stop_at
                        return None
                    event = heappop(queue)[3]
                    self._now = when
                else:
                    break
                processed += 1
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    # Nobody waited on a failed event: surface the error
                    # loudly instead of losing it.
                    raise event._value
        except StopSimulation as stop:
            return stop.args[0] if stop.args else None
        finally:
            self.events_processed += processed
        if until_event is not None and not until_event.triggered:
            raise SimulationError(
                "run(until=event) exhausted the event queue before the event "
                "triggered (deadlock in the simulated system?)"
            )
        if stop_at is not None:
            self._now = stop_at
        return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        event._defused = True
        raise event._value


# Process and the composite events subclass Event, so their modules import
# this one; binding them here, after everything they need is defined, keeps
# an import statement off the spawn path (Environment.process runs once per
# simulated activity).
from .process import Process  # noqa: E402
from .sync import AllOf, AnyOf  # noqa: E402
