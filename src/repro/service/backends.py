"""Execution backends: the ``AbstractBackend`` contract and two plugins.

A backend turns dispatched jobs into result payloads asynchronously:
``start`` begins executing (never raises for *run* failures), ``poll``
reports an outcome exactly once when the job finishes.  Outcomes are
``("ok", payload)`` or ``("err", traceback_text)`` — a failed job is a
*result*, not a backend exception, so one crashing job can never take
the queue down (the service marks it failed and keeps draining).

A backend sees *executions*, not jobs: the service's result cache (see
:mod:`repro.service.api`) starts one per distinct request content, so a
backend is never asked to run a request whose twin is running or done.
Jobs served from the cache report ``backend == "cache"`` — a name in
results and counters, not a backend object; it has no slots to wait for.

Two implementations ship, the shape leaving the seam open for remote
plugins (a slurm/arq-style backend only has to implement the same four
methods against a remote queue):

* :class:`EagerBackend` — runs the request synchronously, in-process, at
  ``start`` time.  One slot.  The reference implementation: useful for
  tests, debugging, and as the determinism oracle for every other
  backend.
* :class:`PoolBackend` — up to ``workers`` jobs at a time, each in its
  own process **forked from the service process at dispatch**
  (:class:`repro.service.isolation.IsolatedCall`, the supervisor the
  figure-sweep runner uses too): no worker pool, no thread.  A job
  process that dies is that job's failure, naming the wait status, and
  nothing else's — not a hang, not a broken backend.
"""

from __future__ import annotations

import abc
import os
import traceback
from typing import Optional

from .isolation import IsolatedCall
from .job import JobRequest
from .runner import execute_request

__all__ = ["AbstractBackend", "EagerBackend", "PoolBackend"]


class AbstractBackend(abc.ABC):
    """The backend contract: start / poll / capacity / close."""

    #: registry name the service routes by.
    name: str = "abstract"

    def __init__(self, slots: int = 1):
        if slots < 1:
            raise ValueError("slots must be at least 1")
        self.slots = slots

    @abc.abstractmethod
    def start(self, job_id: str, request: JobRequest) -> None:
        """Begin executing; must not raise for job failures (they are
        reported through :meth:`poll`)."""

    @abc.abstractmethod
    def poll(self, job_id: str) -> "Optional[tuple[str, object]]":
        """Non-blocking: ``None`` while running, the job's outcome once
        finished.  An outcome is delivered exactly once; polling an
        unknown or already-collected job raises ``KeyError``."""

    @abc.abstractmethod
    def active(self) -> "tuple[str, ...]":
        """Ids of jobs started but not yet collected."""

    def free_slots(self) -> int:
        return self.slots - len(self.active())

    def describe(self) -> dict:
        """Resource shape for status displays."""
        return {"name": self.name, "slots": self.slots}

    def close(self) -> None:
        """Release resources (idempotent)."""


class EagerBackend(AbstractBackend):
    """Synchronous in-process execution; the reference backend."""

    name = "eager"

    def __init__(self):
        super().__init__(slots=1)
        self._done: "dict[str, tuple[str, object]]" = {}

    def start(self, job_id: str, request: JobRequest) -> None:
        try:
            self._done[job_id] = ("ok", execute_request(request))
        except Exception:
            self._done[job_id] = ("err", traceback.format_exc())

    def poll(self, job_id: str) -> "Optional[tuple[str, object]]":
        return self._done.pop(job_id)

    def active(self) -> "tuple[str, ...]":
        return tuple(self._done)


class PoolBackend(AbstractBackend):
    """One forked process per job; ``workers`` jobs at a time.

    ``start`` forks the job from the service process as it is at that
    dispatch (``execute_request`` is resolved through this module then,
    so tests can monkeypatch it); a result depends only on its request,
    not on what the service ran before (``test_determinism.py``).
    ``poll`` drains the job's pipe: a job only finishes by being polled.
    ``close`` kills and reaps whatever is still running.
    """

    name = "pool"

    def __init__(self, workers: int = 2):
        super().__init__(slots=workers)
        if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX guard
            raise RuntimeError("PoolBackend requires POSIX fork")
        self._running: "dict[str, IsolatedCall]" = {}

    def start(self, job_id: str, request: JobRequest) -> None:
        self._running[job_id] = IsolatedCall(execute_request, request)

    def poll(self, job_id: str) -> "Optional[tuple[str, object]]":
        if not self._running[job_id].poll():
            return None
        return self._running.pop(job_id).outcome()

    def active(self) -> "tuple[str, ...]":
        return tuple(self._running)

    def describe(self) -> dict:
        return {"name": self.name, "slots": self.slots,
                "isolation": "fork-per-job"}

    def close(self) -> None:
        while self._running:
            self._running.popitem()[1].kill()
