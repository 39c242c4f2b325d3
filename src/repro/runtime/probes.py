"""The probe seam: the fixed set of runtime points tools attach to.

As in Nanos++, tool code stays out of the core.  A *subscriber* is any
object; after its optional ``attach(runtime)``, each of its methods named
after a point is bound, once per :class:`~repro.runtime.Runtime`, into
that point's tuple, which the runtime fires as ``for fn in
probes.<point>: fn(...)`` — an unsubscribed point is an empty tuple.
Observers never touch the simulated clock; interceptors change what the
runtime does (``watch_args``: the sanitizer's buffer wrapping; the fault
engine's ``kernel_should_abort``, ``link_slowdown`` and ``am_outcome``).
docs/ARCHITECTURE.md lists each point's arguments and where it fires.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

__all__ = ["POINTS", "INTERCEPTORS", "Probes", "JsonLinesRecorder",
           "bind", "install"]

POINTS = ("task_submitted", "task_started", "task_finished", "task_retired",
          "dep_arc", "transfer_issued", "transfer_done", "kernel_done",
          "am_sent", "am_handled", "commit", "evict", "dispatch",
          "taskwait", "host_read", "fault", "finding")
INTERCEPTORS = ("watch_args", "kernel_should_abort", "link_slowdown",
                "am_outcome")


class Probes:
    """One runtime's bound points: a tuple of callables per name; a point
    no subscriber binds reads the class-level empty tuple."""


for _name in POINTS + INTERCEPTORS:
    setattr(Probes, _name, ())

#: the one ambient stack: subscribers installed around runtime construction.
_INSTALLED: list = []


@contextmanager
def install(subscriber):
    """Context manager: runtimes built inside also bind ``subscriber``
    (yielded) — for callers that never see the ``Runtime`` they run."""
    _INSTALLED.append(subscriber)
    try:
        yield subscriber
    finally:
        _INSTALLED.remove(subscriber)


def bind(runtime, *own) -> Probes:
    """Attach the installed subscribers plus ``own`` (None skipped) to
    ``runtime`` and bind their point methods."""
    probes = Probes()
    for subscriber in dict.fromkeys((*_INSTALLED, *own)):
        if subscriber is None:
            continue
        if hasattr(subscriber, "attach"):
            subscriber.attach(runtime)
        for name in POINTS + INTERCEPTORS:
            fn = getattr(subscriber, name, None)
            if fn is not None:
                setattr(probes, name, getattr(probes, name) + (fn,))
    return probes


class JsonLinesRecorder:
    """Subscribes to every point; writes one JSON line per firing:
    ``{"t": sim time, "point": name, "args": [...]}``.  Tasks appear as
    ``{"task": tid, "name": name}``, places by their label."""

    def __init__(self, stream):
        self.stream = stream

    def attach(self, runtime) -> None:
        self._env = runtime.env

    def __getattr__(self, point: str):
        if point not in POINTS:
            raise AttributeError(point)

        def record(*args) -> None:
            self.stream.write(json.dumps(
                {"t": self._env.now, "point": point,
                 "args": [_plain(a) for a in args]}) + "\n")
        return record


def _plain(value):
    if hasattr(value, "tid"):
        return {"task": value.tid, "name": value.name}
    if isinstance(value, (str, int, float, bool, type(None))):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return getattr(value, "place_name", None) or repr(value)
