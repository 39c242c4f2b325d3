"""Generator-based simulated processes.

A :class:`Process` wraps a Python generator.  Each value the generator yields
must be an :class:`~repro.sim.core.Event`; the process sleeps until the event
fires and is resumed with the event's value (or has the event's exception
thrown into it).  A process is itself an event that triggers with the
generator's return value, so processes can wait on each other.

Nothing preempts a process: like the runtime threads it models, it runs
until it yields and is woken only by the event it waits on.
"""

from __future__ import annotations

from typing import Generator

from .core import Event, PRIORITY_URGENT, SimulationError, _PENDING

__all__ = ["Process"]


class Process(Event):
    """A running simulated activity (thread, engine, protocol handler...)."""

    __slots__ = ("_generator", "_send", "_throw")

    def __init__(self, env, generator: Generator):
        # One spawn per simulated activity: the slots are initialised
        # directly (as Timeout does) instead of through Event.__init__, and
        # binding the generator's methods doubles as the type check.
        try:
            self._send = generator.send
            self._throw = generator.throw
        except AttributeError:
            raise SimulationError(
                f"Process needs a generator, got {type(generator).__name__}"
            ) from None
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._scheduled = False
        self._processed = False
        self._defused = False
        self._generator = generator
        # Kick off the process at the current instant, ahead of normal
        # events.  The bootstrap is born triggered-and-scheduled and lands
        # directly in the urgent immediate lane (same fast path as Timeout:
        # the _schedule guard can never fire for a fresh event).
        bootstrap = Event(env)
        bootstrap.callbacks = [self._resume]
        bootstrap._value = None
        bootstrap._ok = True
        bootstrap._scheduled = True
        env._seq += 1
        env._imm[PRIORITY_URGENT].append((env._seq, bootstrap))

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        while True:
            try:
                if event._ok:
                    next_event = self._send(event._value)
                else:
                    event._defused = True
                    next_event = self._throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                name = getattr(self._generator, "__name__", "process")
                exc = SimulationError(
                    f"process {name!r} yielded a non-event: {next_event!r}"
                )
                try:
                    self._throw(exc)
                except BaseException as err:
                    self.fail(err)
                    return
                raise exc

            if next_event.callbacks is not None:
                # Event still pending: sleep until it fires.
                next_event.callbacks.append(self._resume)
                return
            # Event already processed: loop and resume immediately.
            event = next_event
