"""Execution backends: one class, ``Backend(workers)``.

A backend turns dispatched jobs into result payloads: ``start`` begins
executing (never raises for *run* failures), ``poll`` reports an outcome
exactly once when the job finishes.  Outcomes are ``("ok", payload)`` or
``("err", traceback_text)`` — a failed job is a *result*, not a backend
exception, so one crashing job can never take the queue down (the
service marks it failed and keeps draining).

A backend sees *executions*, not jobs: the service's result cache (see
:mod:`repro.service.api`) starts one per distinct request content, so a
backend is never asked to run a request whose twin is running or done.
Jobs served from the cache report ``backend == "cache"`` — a name in
results and counters, not a backend object; it has no slots to wait for.

``workers`` picks where a job runs:

* ``0`` — synchronously, in-process, at ``start``; one slot.  The
  reference, and the determinism oracle for forked execution.
* ``N >= 1`` — up to N jobs at a time, each in its own process **forked
  from the service process at dispatch**
  (:class:`repro.service.isolation.IsolatedCall`; ``execute_request``
  is resolved through this module then, so tests can monkeypatch it): no
  worker pool, no thread.  ``poll`` drains the job's pipe — a job only
  finishes by being polled — and ``close`` kills and reaps whatever is
  still running.  A job process that dies is that job's failure, naming
  the wait status, and nothing else's.

The service and the figure sweep (:func:`repro.bench.sweep.run_points`)
are this class's two clients.
"""

from __future__ import annotations

import traceback
from typing import Optional

from .isolation import IsolatedCall
from .job import JobRequest
from .runner import execute_request

__all__ = ["Backend"]


class Backend:
    """``workers`` forked jobs at a time, or one in-process job (``0``)."""

    def __init__(self, workers: int = 0):
        if workers < 0:
            raise ValueError("workers must be non-negative")
        self.workers = workers
        self.slots = max(workers, 1)
        #: job id -> the running job's process, or the finished outcome.
        self._jobs: "dict[str, IsolatedCall | tuple[str, object]]" = {}

    def start(self, job_id: str, request: JobRequest) -> None:
        if self.workers:
            self._jobs[job_id] = IsolatedCall(execute_request, request)
            return
        try:
            self._jobs[job_id] = ("ok", execute_request(request))
        except Exception:
            self._jobs[job_id] = ("err", traceback.format_exc())

    def poll(self, job_id: str) -> "Optional[tuple[str, object]]":
        """Non-blocking: ``None`` while running, the job's outcome once
        finished.  An outcome is delivered exactly once; polling an
        unknown or already-collected job raises ``KeyError``."""
        job = self._jobs[job_id]
        if isinstance(job, IsolatedCall):
            if not job.poll():
                return None
            job = job.outcome()
        del self._jobs[job_id]
        return job

    def active(self) -> "tuple[str, ...]":
        """Ids of jobs started but not yet collected."""
        return tuple(self._jobs)

    def free_slots(self) -> int:
        return self.slots - len(self.active())

    def fds(self) -> "list[int]":
        """Pipe fds of the forked jobs still running, for ``select``."""
        return [job.fileno() for job in self._jobs.values()
                if isinstance(job, IsolatedCall)]

    def close(self) -> None:
        """Kill and reap every running job (idempotent)."""
        for job in self._jobs.values():
            if isinstance(job, IsolatedCall):
                job.kill()
        self._jobs.clear()
