"""The async submit / poll / stream-status / fetch-artifacts façade.

A :class:`Service` owns the queue, the backends and a staging root, and
pumps jobs between them::

    from repro.service import JobRequest, Service

    with Service.local() as svc:
        job_id = svc.submit(JobRequest(app="matmul",
                                       size={"n": 64, "bs": 16}))
        svc.run_until_idle()
        result = svc.result(job_id)
        bundle = svc.fetch_artifacts(job_id)

``submit`` returns immediately with a job id; :meth:`Service.pump` is
the single synchronous step (collect finished outcomes, then dispatch
queued jobs to backends with free slots, in queue order).  ``poll``,
``stream_status``, ``wait`` and ``run_until_idle`` are conveniences over
``pump``; when a pump changes nothing they block in ``select`` on the
running forked jobs' pipes, never in a sleep.  All lifecycle transitions
are mirrored to the staging directory (``status.json``; a ``running``
one names this process as its ``worker``), so an out-of-process observer
— the CLI ``status`` command, or a ``worker`` re-adopting the jobs of a
killed one — sees the same states the in-process API reports.

A service simulates each distinct request once.  Jobs whose requests
have the same :meth:`~repro.service.job.JobRequest.content_key` — equal
in everything but tenant, priority and cost — share one execution: the
first is executed on a backend, the ones dispatched while it runs join
it, the ones dispatched later are served from its stored payload
(``JobResult.backend == "cache"``, ``cached_from`` naming the job that
executed).  Every job still takes its fair-share turn and stages its own
complete bundle.  The table lives and dies with the ``Service`` object;
see "Result cache" in docs/SERVICE.md.

Everything the service does is counted under ``service.*`` in its
metrics registry (see docs/OBSERVABILITY.md): submissions, per-tenant
dispatches, per-backend completions, failures, cache hits and misses,
queue depth, host-time latency histograms.
"""

from __future__ import annotations

import copy
import os
import select
import tempfile
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..metrics import CounterRegistry
from .backends import Backend
from .job import JobRequest, JobResult, JobState
from .queue import JobQueue
from .staging import StagingDir

__all__ = ["Service"]


@dataclass
class _JobRecord:
    request: JobRequest
    #: ``request.content_key()``; ``None`` for an uncacheable request.
    key: Optional[str]
    #: ``time.perf_counter()`` at submit and at dispatch.
    submitted_at: float
    dispatched_at: float = 0.0
    state: JobState = JobState.QUEUED
    backend: str = ""
    result: Optional[JobResult] = None


@dataclass
class _CacheEntry:
    """One distinct request content.  While ``payload`` is ``None`` the
    ``leader`` job is executing it and ``followers`` wait for its outcome;
    afterwards ``payload`` is what ``leader`` returned."""

    leader: str
    payload: Optional[dict] = None
    followers: "list[str]" = field(default_factory=list)


class Service:
    """Queue + backends + staging, pumped synchronously.

    Routing is a rule, not a part: with both an ``eager`` and a ``pool``
    backend, cluster runs and wide (3+ device) nodes are forked on the
    pool while small single-node runs stay in-process; otherwise every
    job goes to the first (normally the only) backend.  ``weights`` are
    the tenants' fair-share weights for the queue the service builds.
    """

    def __init__(self,
                 backends: "dict[str, Backend] | None" = None,
                 weights: "dict[str, float] | None" = None,
                 staging: "StagingDir | str | None" = None):
        self.metrics = CounterRegistry()
        self.backends = dict(backends) if backends else {"eager": Backend()}
        self.queue = JobQueue(weights, metrics=self.metrics)
        self._tmpdir = None
        if staging is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-svc-")
            staging = self._tmpdir.name
        self.staging = (staging if isinstance(staging, StagingDir)
                        else StagingDir(staging))
        self._jobs: "dict[str, _JobRecord]" = {}
        #: content key -> the one execution of that content.  Memory only
        #: and never evicted: it holds one payload per distinct request of
        #: a service that already keeps every job's result.
        self._cache: "dict[str, _CacheEntry]" = {}
        #: job ids in the order they were popped off the queue.
        self._dispatched: "list[str]" = []

    @classmethod
    def local(cls, workers: int = 0,
              staging: "StagingDir | str | None" = None) -> "Service":
        """An eager-only service, or eager + ``workers``-slot pool."""
        backends = {"eager": Backend()}
        if workers > 0:
            backends["pool"] = Backend(workers)
        return cls(backends=backends, staging=staging)

    # -- submission -------------------------------------------------------
    def submit(self, request: JobRequest,
               job_id: Optional[str] = None) -> str:
        """Enqueue a request; returns its job id immediately."""
        if job_id is None:
            job_id = (f"job-{len(self._jobs):04d}-{request.tenant}-"
                      f"{request.app}")
        if job_id in self._jobs:
            raise ValueError(f"duplicate job id {job_id!r}")
        record = _JobRecord(request=request, key=request.content_key(),
                            submitted_at=time.perf_counter())
        self._jobs[job_id] = record
        self.staging.write_request(job_id, request)
        self.staging.write_status(job_id, JobState.QUEUED,
                                  tenant=request.tenant)
        self.queue.push(job_id, request)
        self.metrics.inc("service.jobs_submitted")
        return job_id

    # -- the pump ---------------------------------------------------------
    def pump(self) -> int:
        """One synchronous step; returns the number of state transitions.

        Collects every finished outcome first (freeing slots), then
        dispatches queued jobs in queue order until the next job's
        backend has no free slot — dispatch is head-of-line on purpose,
        so the fair-share order the queue computes is the order jobs
        actually reach the backends.  A job whose content is already in
        the result cache needs no slot: it passes while every backend is
        full, but only ever from the head of the queue.
        """
        progressed = 0
        for name, backend in self.backends.items():
            for job_id in backend.active():
                outcome = backend.poll(job_id)
                if outcome is not None:
                    progressed += self._settle(job_id, self._jobs[job_id],
                                               outcome, name)
        while self.queue:
            job_id, request = self.queue.peek()
            record = self._jobs[job_id]
            entry = self._cache.get(record.key)
            if entry is None:
                if "pool" in self.backends and "eager" in self.backends:
                    heavy = request.machine == "cluster" or request.count >= 3
                    name = "pool" if heavy else "eager"
                else:
                    name = next(iter(self.backends))
                if self.backends[name].free_slots() <= 0:
                    break
            popped_id, request = self.queue.pop()
            assert popped_id == job_id
            record.state = JobState.RUNNING
            self._dispatched.append(job_id)
            record.dispatched_at = time.perf_counter()
            progressed += 1
            if entry is None:                      # miss: execute it
                if record.key is not None:
                    self._cache[record.key] = _CacheEntry(leader=job_id)
                self._start(job_id, record, name)
                continue
            record.backend = "cache"
            if entry.payload is None:              # join the execution
                # Joining is what makes hits and misses exact: a table of
                # finished results only would execute a second copy
                # whenever it is dispatched before the first one ends —
                # a number that depends on timing and on the pool size.
                entry.followers.append(job_id)
                self.staging.write_status(job_id, JobState.RUNNING,
                                          backend=record.backend,
                                          tenant=request.tenant,
                                          worker=os.getpid())
            else:                                  # hit: finished already
                self._finish(job_id, record, ("ok", entry.payload),
                             cached_from=entry.leader)
        self.metrics.set_gauge(
            "service.active",
            sum(len(b.active()) for b in self.backends.values()))
        return progressed

    def _start(self, job_id: str, record: _JobRecord, backend: str) -> None:
        """Begin one execution of ``record``'s request on ``backend``."""
        record.backend = backend
        self.staging.write_status(job_id, JobState.RUNNING, backend=backend,
                                  tenant=record.request.tenant,
                                  worker=os.getpid())
        self.metrics.inc(f"service.backend.{backend}.dispatched")
        self.metrics.inc("service.cache.misses")
        self.backends[backend].start(job_id, record.request)

    def _settle(self, job_id: str, record: _JobRecord, outcome,
                backend: str) -> int:
        """Finish a job ``backend`` executed and whatever waited on it;
        returns the number of state transitions."""
        self._finish(job_id, record, outcome)
        entry = self._cache.get(record.key)
        if entry is None:                          # uncacheable request
            return 1
        followers, entry.followers = entry.followers, []
        if outcome[0] == "ok":
            entry.payload = outcome[1]
            for follower in followers:
                self._finish(follower, self._jobs[follower], outcome,
                             cached_from=job_id)
            return 1 + len(followers)
        # A failure is never shared and never stored (a crash may be the
        # host's, not the request's): the first follower takes the slot
        # the leader just freed and leads the rest.
        if not followers:
            del self._cache[record.key]
            return 1
        entry.leader, *entry.followers = followers
        self._start(entry.leader, self._jobs[entry.leader], backend)
        return 2

    def _finish(self, job_id: str, record: _JobRecord, outcome,
                cached_from: Optional[str] = None) -> None:
        kind, value = outcome
        request = record.request
        if kind == "ok":
            payload = value
            record.state = JobState.DONE
            # Copies, because the payload may be the cache's: no result
            # aliases it, so no caller can edit another job's numbers.
            result = JobResult(
                job_id=job_id, state=JobState.DONE, app=request.app,
                version=request.version, tenant=request.tenant,
                backend=record.backend,
                makespan=payload["makespan"], metric=payload["metric"],
                metric_unit=payload["metric_unit"],
                metrics=copy.deepcopy(payload["metrics"]),
                findings=copy.deepcopy(payload["sanitizer"]),
                cached_from=cached_from)
            self.staging.write_result(job_id, result, payload)
            self.staging.write_status(job_id, JobState.DONE,
                                      backend=record.backend,
                                      tenant=request.tenant)
            self.metrics.inc("service.jobs_completed")
            self.metrics.inc(f"service.backend.{record.backend}.completed")
            if cached_from is not None:
                # Counted here, not at the join: counters cannot decrease,
                # and a follower may yet be promoted to an execution.
                self.metrics.inc("service.cache.hits")
            self.metrics.observe("service.job.makespan",
                                 payload["makespan"])
        else:
            record.state = JobState.FAILED
            result = JobResult(
                job_id=job_id, state=JobState.FAILED, app=request.app,
                version=request.version, tenant=request.tenant,
                backend=record.backend, error=str(value))
            self.staging.write_result(job_id, result)
            self.staging.write_status(job_id, JobState.FAILED,
                                      error=str(value),
                                      backend=record.backend,
                                      tenant=request.tenant)
            self.metrics.inc("service.jobs_failed")
            self.metrics.inc(f"service.backend.{record.backend}.failed")
        record.result = result
        now = time.perf_counter()
        self.metrics.observe("service.job.queue_wait",
                             record.dispatched_at - record.submitted_at)
        self.metrics.observe("service.job.run_wall",
                             now - record.dispatched_at)
        self.metrics.observe("service.job.total", now - record.submitted_at)

    # -- status & results -------------------------------------------------
    def _record(self, job_id: str) -> _JobRecord:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(f"unknown job {job_id!r}") from None

    def state(self, job_id: str) -> JobState:
        return self._record(job_id).state

    def status(self, job_id: str) -> dict:
        record = self._record(job_id)
        doc = {"job_id": job_id, "state": record.state.value,
               "tenant": record.request.tenant,
               "backend": record.backend or None}
        if record.result is not None and record.result.error:
            doc["error"] = record.result.error
        return doc

    def poll(self, job_id: str) -> JobState:
        """Pump once, then report the job's state."""
        self.pump()
        return self.state(job_id)

    def stream_status(self, job_id: str, timeout: Optional[float] = None
                      ) -> "Iterator[JobState]":
        """Yield the job's state now and on every change, pumping between
        waits, until it reaches a terminal state (which is yielded)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        last = self.state(job_id)
        yield last
        while not last.terminal:
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {last.value}")
            if self.pump() == 0:
                self._block(deadline)
            state = self.state(job_id)
            if state is not last:
                last = state
                yield last

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> JobResult:
        """Block (pumping) until the job finishes; returns its result."""
        for _ in self.stream_status(job_id, timeout=timeout):
            pass
        return self.result(job_id)

    def run_until_idle(self, timeout: Optional[float] = None) -> None:
        """Pump until no job is queued or running."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.queue or any(
                r.state is JobState.RUNNING for r in self._jobs.values()):
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError("service did not drain in time")
            if self.pump() == 0:
                self._block(deadline)

    def _block(self, deadline: Optional[float]) -> None:
        """After a pump that changed nothing, wait until a forked job
        writes to its pipe or ``deadline`` passes.  In-process jobs finish
        inside ``start``: with no pipe, nothing running can ever finish."""
        fds = [fd for backend in self.backends.values()
               for fd in backend.fds()]
        if not fds:
            stuck = [job_id for job_id, record in self._jobs.items()
                     if record.state is JobState.RUNNING]
            raise RuntimeError(f"no process to wait on for running jobs "
                               f"{', '.join(stuck)}")
        select.select(fds, [], [], None if deadline is None
                      else max(0.0, deadline - time.monotonic()))

    def result(self, job_id: str) -> JobResult:
        record = self._record(job_id)
        if record.result is None:
            raise RuntimeError(f"job {job_id} is {record.state.value}; "
                               f"no result yet")
        return record.result

    def fetch_artifacts(self, job_id: str) -> "dict[str, object]":
        """Name → :class:`~pathlib.Path` of every staged artifact."""
        self._record(job_id)
        return self.staging.artifacts(job_id)

    def dispatch_order(self) -> "list[str]":
        """Job ids in the order they reached a backend (fairness probe)."""
        return list(self._dispatched)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._jobs

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        for backend in self.backends.values():
            backend.close()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
