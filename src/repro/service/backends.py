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
* :class:`PoolBackend` — a fork-context process pool; each job runs via
  :func:`repro.service.isolation.call_isolated` in a **fresh child
  forked from the pristine worker**, the same machinery (and the same
  isolation guarantee) as the figure-sweep runner.  Worker death
  surfaces as a failed job naming the wait status, not a hang.
"""

from __future__ import annotations

import abc
import concurrent.futures
import multiprocessing
import os
import traceback
from typing import Optional

from .isolation import ChildCrash, ChildError, call_isolated
from .job import JobRequest
from .runner import execute_request

__all__ = ["Outcome", "AbstractBackend", "EagerBackend", "PoolBackend"]

#: ("ok", payload dict) | ("err", formatted traceback / crash detail)
Outcome = "tuple[str, object]"


class AbstractBackend(abc.ABC):
    """The backend contract: start / poll / capacity / close."""

    #: registry name the picker routes by.
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


def _pool_run(request: JobRequest) -> dict:
    """Worker-side entry point: one fresh forked child per job.

    Module-level (picklable) on purpose; ``execute_request`` is resolved
    through the module at call time, so tests can monkeypatch it before
    the pool forks."""
    return call_isolated(execute_request, request)


class PoolBackend(AbstractBackend):
    """Fork-isolated multiprocess pool; ``workers`` concurrent jobs.

    Shares :mod:`repro.service.isolation` with ``repro.bench.sweep`` —
    the pool worker forks one more child per job, so every job runs from
    the pristine pre-service module state and a dying job (segfault,
    ``os._exit``, OOM-kill) is detected via pipe EOF instead of
    corrupting the worker.
    """

    name = "pool"

    def __init__(self, workers: int = 2):
        super().__init__(slots=workers)
        if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX guard
            raise RuntimeError("PoolBackend requires POSIX fork")
        ctx = multiprocessing.get_context("fork")
        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=ctx)
        self._futures: "dict[str, concurrent.futures.Future]" = {}

    def start(self, job_id: str, request: JobRequest) -> None:
        self._futures[job_id] = self._pool.submit(_pool_run, request)

    def poll(self, job_id: str) -> "Optional[tuple[str, object]]":
        fut = self._futures[job_id]
        if not fut.done():
            return None
        del self._futures[job_id]
        try:
            return ("ok", fut.result())
        except ChildError as exc:
            return ("err", exc.traceback)
        except ChildCrash as exc:
            return ("err", f"job process died (wait status "
                           f"{exc.wait_status:#x})")
        except Exception as exc:
            # The pool worker itself died or the payload failed to
            # unpickle: still an outcome, never an exception.
            return ("err", f"backend failure: {exc!r}")

    def active(self) -> "tuple[str, ...]":
        return tuple(self._futures)

    def describe(self) -> dict:
        return {"name": self.name, "slots": self.slots,
                "isolation": "fork-per-job"}

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)
