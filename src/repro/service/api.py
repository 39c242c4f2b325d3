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
``stream_status`` and ``wait`` are conveniences over ``pump``.  All
lifecycle transitions are mirrored to the staging directory
(``status.json``), so an out-of-process observer — the CLI ``status``
command — sees the same states the in-process API reports.

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
import tempfile
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..metrics import CounterRegistry
from .backends import AbstractBackend, EagerBackend, PoolBackend
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
    seq: int = 0
    dispatch_seq: Optional[int] = None


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
    job goes to the first (normally the only) backend.
    """

    def __init__(self,
                 backends: "dict[str, AbstractBackend] | None" = None,
                 queue: Optional[JobQueue] = None,
                 staging: "StagingDir | str | None" = None,
                 metrics: Optional[CounterRegistry] = None):
        self.metrics = metrics if metrics is not None else CounterRegistry()
        self.backends = dict(backends) if backends else \
            {"eager": EagerBackend()}
        for name, backend in self.backends.items():
            backend.name = name
        self.queue = queue if queue is not None else JobQueue()
        if self.queue.metrics is None:
            # Adopted queues report into the service's registry, so the
            # fair-share counters land in the same snapshot.
            self.queue.metrics = self.metrics
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
        self._seq = 0
        self._dispatch_seq = 0

    @classmethod
    def local(cls, workers: int = 0,
              staging: "StagingDir | str | None" = None,
              **kwargs) -> "Service":
        """An eager-only service, or eager + ``workers``-slot pool."""
        backends: dict[str, AbstractBackend] = {"eager": EagerBackend()}
        if workers > 0:
            backends["pool"] = PoolBackend(workers=workers)
        return cls(backends=backends, staging=staging, **kwargs)

    # -- submission -------------------------------------------------------
    def submit(self, request: JobRequest,
               job_id: Optional[str] = None) -> str:
        """Enqueue a request; returns its job id immediately."""
        if job_id is None:
            job_id = f"job-{self._seq:04d}-{request.tenant}-{request.app}"
        if job_id in self._jobs:
            raise ValueError(f"duplicate job id {job_id!r}")
        record = _JobRecord(request=request, key=request.content_key(),
                            submitted_at=time.perf_counter(), seq=self._seq)
        self._seq += 1
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
        for backend in self.backends.values():
            for job_id in backend.active():
                record = self._jobs.get(job_id)
                if record is None or record.state is not JobState.RUNNING:
                    continue
                outcome = backend.poll(job_id)
                if outcome is not None:
                    progressed += self._settle(job_id, record, outcome,
                                               backend)
        while self.queue:
            job_id, request = self.queue.peek()
            record = self._jobs[job_id]
            entry = self._cache.get(record.key)
            if entry is None:
                if "pool" in self.backends and "eager" in self.backends:
                    heavy = request.machine == "cluster" or request.count >= 3
                    backend = self.backends["pool" if heavy else "eager"]
                else:
                    backend = next(iter(self.backends.values()))
                if backend.free_slots() <= 0:
                    break
            popped_id, request = self.queue.pop()
            assert popped_id == job_id
            record.state = JobState.RUNNING
            record.dispatch_seq = self._dispatch_seq
            self._dispatch_seq += 1
            record.dispatched_at = time.perf_counter()
            progressed += 1
            if entry is None:                      # miss: execute it
                if record.key is not None:
                    self._cache[record.key] = _CacheEntry(leader=job_id)
                self._start(job_id, record, backend)
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
                                          tenant=request.tenant)
            else:                                  # hit: finished already
                self._finish(job_id, record, ("ok", entry.payload),
                             cached_from=entry.leader)
        self.metrics.set_gauge(
            "service.active",
            sum(len(b.active()) for b in self.backends.values()))
        return progressed

    def _start(self, job_id: str, record: _JobRecord,
               backend: AbstractBackend) -> None:
        """Begin one execution of ``record``'s request on ``backend``."""
        record.backend = backend.name
        self.staging.write_status(job_id, JobState.RUNNING,
                                  backend=backend.name,
                                  tenant=record.request.tenant)
        self.metrics.inc(f"service.backend.{backend.name}.dispatched")
        self.metrics.inc("service.cache.misses")
        backend.start(job_id, record.request)

    def _settle(self, job_id: str, record: _JobRecord, outcome,
                backend: AbstractBackend) -> int:
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
            # The ``engine.*`` gauges of a cached result are the executing
            # job's wall-clock observations, not this job's.
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

    def stream_status(self, job_id: str, poll_interval: float = 0.01,
                      timeout: Optional[float] = None
                      ) -> "Iterator[JobState]":
        """Yield the job's state now and on every change, pumping between
        polls, until it reaches a terminal state (which is yielded)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        last = self.state(job_id)
        yield last
        while not last.terminal:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {last.value}")
            if self.pump() == 0:
                time.sleep(poll_interval)
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
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError("service did not drain in time")
            if self.pump() == 0:
                time.sleep(0.005)

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
        started = [(r.dispatch_seq, jid) for jid, r in self._jobs.items()
                   if r.dispatch_seq is not None]
        return [jid for _, jid in sorted(started)]

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
