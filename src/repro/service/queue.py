"""Priorities + per-tenant weighted fair queueing.

The "millions of users" half of the service: when more jobs arrive than
backends can run, dispatch order must be *predictable* (strict priority
classes) and *fair* (no tenant starves another inside a class).

Semantics
---------

* **Priority is strict**: a queued job always dispatches before any job
  of lower priority, whatever the tenants.
* **Within a priority class, weighted fair queueing**: every tenant
  carries a virtual time that advances by ``cost / weight`` per job
  dispatched; the tenant with the smallest virtual time goes next (ties
  break by tenant name, so dispatch order is fully deterministic).  A
  tenant with weight 2 therefore drains twice as many equal-cost jobs as
  a weight-1 tenant over any contended window.
* **Within one tenant and priority, FIFO.**
* A tenant that was idle re-enters at the queue's current virtual clock
  (the classic WFQ rule): sitting out does not bank credit to later
  monopolize the backends.

The queue is synchronous and deterministic — the service pumps it; there
are no threads and no wall-clock dependence, which is what lets the
fairness tests assert exact dispatch orders.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..metrics import CounterRegistry
from .job import JobRequest

__all__ = ["JobQueue"]


class JobQueue:
    """Strict-priority, tenant-weighted fair FIFO queue."""

    def __init__(self, weights: "dict[str, float] | None" = None,
                 default_weight: float = 1.0,
                 metrics: Optional[CounterRegistry] = None):
        if default_weight <= 0:
            raise ValueError("default_weight must be positive")
        self._weights = dict(weights or {})
        for tenant, w in self._weights.items():
            if w <= 0:
                raise ValueError(f"weight for {tenant!r} must be positive")
        self._default_weight = default_weight
        #: (priority, tenant) -> FIFO of (job_id, request)
        self._queues: "dict[tuple[int, str], deque]" = {}
        self._vtime: "dict[str, float]" = {}
        self._vclock = 0.0
        self._len = 0
        #: registry the ``service.*`` queue counters report into.  ``None``
        #: means "not bound yet": a :class:`~repro.service.api.Service`
        #: adopting this queue binds its own registry, so queue and
        #: service counters land in one snapshot.
        self.metrics = metrics

    # -- configuration ----------------------------------------------------
    def weight(self, tenant: str) -> float:
        return self._weights.get(tenant, self._default_weight)

    # -- queue operations -------------------------------------------------
    def push(self, job_id: str, request: JobRequest) -> None:
        tenant = request.tenant
        if not self._tenant_active(tenant):
            # Idle tenant re-enters at the current virtual clock: no
            # banked credit from sitting out.
            self._vtime[tenant] = max(self._vtime.get(tenant, 0.0),
                                      self._vclock)
        key = (request.priority, tenant)
        self._queues.setdefault(key, deque()).append((job_id, request))
        self._len += 1
        if self.metrics is not None:
            self.metrics.inc(f"service.tenant.{tenant}.queued")
            self.metrics.set_gauge("service.queue.depth", self._len)

    def _tenant_active(self, tenant: str) -> bool:
        return any(q for (_, t), q in self._queues.items() if t == tenant)

    def _select(self) -> "Optional[tuple[int, str]]":
        """The (priority, tenant) slot :meth:`pop` will serve next."""
        live = [(p, t) for (p, t), q in self._queues.items() if q]
        if not live:
            return None
        top = max(p for p, _ in live)
        return min(((p, t) for p, t in live if p == top),
                   key=lambda pt: (self._vtime[pt[1]], pt[1]))

    def peek(self) -> "Optional[tuple[str, JobRequest]]":
        """The job :meth:`pop` would return, without dispatching it."""
        slot = self._select()
        return self._queues[slot][0] if slot is not None else None

    def pop(self) -> "Optional[tuple[str, JobRequest]]":
        slot = self._select()
        if slot is None:
            return None
        _, tenant = slot
        job_id, request = self._queues[slot].popleft()
        self._len -= 1
        # WFQ accounting: the virtual clock is the served tenant's start
        # tag; its own clock advances by the job's weighted cost.
        self._vclock = self._vtime[tenant]
        self._vtime[tenant] += request.cost / self.weight(tenant)
        if self.metrics is not None:
            self.metrics.inc(f"service.tenant.{tenant}.dispatched")
            self.metrics.inc("service.jobs_dispatched")
            self.metrics.set_gauge("service.queue.depth", self._len)
        return job_id, request

    # -- introspection ----------------------------------------------------
    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0
