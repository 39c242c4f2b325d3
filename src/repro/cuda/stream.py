"""CUDA stream semantics over simulated GPU engines.

Operations enqueued on one stream execute strictly in order; operations on
different streams may overlap if they use different engines (compute vs DMA).
The *null stream* serializes with everything — modelled by routing all work
through a single stream when overlap is disabled, which reproduces the
paper's observation that without streams "CUDA tends to serialize [transfers]
after the kernel execution".

Implementation note: a stream is a single persistent *pump* process draining
a FIFO of operations, not one wrapper process per operation.  An operation is
the generator of its device work (e.g. ``gpu.run_kernel(duration)``), created
by the caller and not yet started; enqueueing returns a plain completion
:class:`Event`, and the pump runs each operation via ``yield from`` and fires
its event.  On figure workloads (hundreds of serialized kernel + DMA ops per
GPU) this removes two simulated events and one generator per operation from
the hot path.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

from ..sim import Environment, Event
from ..sim.core import PRIORITY_URGENT

__all__ = ["Stream"]


class Stream:
    """An in-order queue of GPU operations."""

    _next_id = 0

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        Stream._next_id += 1
        self.sid = Stream._next_id
        self.name = name or f"stream{self.sid}"
        self._tail: Optional[Event] = None
        # Enqueues counted under ``cuda.stream.<name>.ops`` of the
        # environment's registry; the queue-depth gauge reads the
        # operations not yet started, and its high-water mark is the
        # pipelining depth actually reached.
        self._c_ops = env.metrics.counter(f"cuda.stream.{self.name}.ops")
        self._g_depth = env.metrics.gauge(f"cuda.stream.{self.name}.depth")
        self._pending: deque = deque()
        self._pump_proc = None
        self._wakeup: Optional[Event] = None
        #: first operation failure; later enqueued operations fail with the
        #: same exception without running (the old chained-process semantics:
        #: a failed tail poisoned every successor).
        self._poison: Optional[BaseException] = None

    def enqueue(self, operation: Generator) -> Event:
        """Append ``operation`` (an operation's generator, not yet started)
        to the stream.

        Returns the completion event of the enqueued operation.  The
        operation starts only after every previously enqueued operation on
        this stream has completed (in-order execution); it never starts if
        an earlier one failed.
        """
        self._c_ops.value += 1
        done = Event(self.env)
        self._pending.append((operation, done))
        depth = self._g_depth          # raised here, lowered by the pump
        depth.value += 1
        if depth.value > depth.high_water:
            depth.high_water = depth.value
        if self._pump_proc is None:
            self._pump_proc = self.env.process(self._pump())
        elif self._wakeup is not None:
            # Idle pump: wake it at the current instant, ahead of normal
            # events (the same slot a fresh process bootstrap would take).
            wake, self._wakeup = self._wakeup, None
            wake.succeed(priority=PRIORITY_URGENT)
        self._tail = done
        return done

    def _pump(self):
        """The stream's drain loop (one simulated process per stream)."""
        pending = self._pending
        depth = self._g_depth
        while True:
            while pending:
                op, done = pending.popleft()
                depth.value -= 1
                if self._poison is not None:
                    done.fail(self._poison)
                    continue
                try:
                    result = yield from op
                except GeneratorExit:
                    # Interpreter shutdown / GC of a parked simulation:
                    # close quietly, never re-yield.
                    raise
                except BaseException as exc:  # noqa: BLE001 - propagated
                    self._poison = exc
                    done.fail(exc)
                    continue
                done.succeed(result)
            self._wakeup = Event(self.env)
            yield self._wakeup

    def synchronize(self) -> Event:
        """Event that fires when all currently enqueued work has finished."""
        done = Event(self.env)
        if self._tail is None or self._tail.processed:
            done.succeed()
        else:
            self._tail.callbacks.append(lambda _ev: done.succeed())
        return done
