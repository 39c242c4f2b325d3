"""The service queue: priorities, then submission order.

A queued job dispatches before every job of lower priority; jobs of
equal priority dispatch in submission order, whatever their tenants (a
tenant is an accounting label: ``service.tenant.<t>.queued`` /
``.dispatched``).  The queue is synchronous and wall-clock-free — the
service pumps it — so tests can assert exact dispatch orders.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional

from ..metrics import CounterRegistry
from .job import JobRequest

__all__ = ["JobQueue"]


class JobQueue:
    """Strict-priority FIFO queue."""

    def __init__(self, metrics: Optional[CounterRegistry] = None):
        #: heap of (-priority, submission seq, job_id, request)
        self._heap: "list[tuple[int, int, str, JobRequest]]" = []
        self._seq = itertools.count()
        if metrics is None:
            metrics = CounterRegistry()
        #: registry the ``service.*`` queue counters report into: the
        #: owning :class:`~repro.service.api.Service`'s, so queue and
        #: service counters land in one snapshot; a bare queue's own.
        self.metrics = metrics

    def push(self, job_id: str, request: JobRequest) -> None:
        heapq.heappush(self._heap, (-request.priority, next(self._seq),
                                    job_id, request))
        self.metrics.inc(f"service.tenant.{request.tenant}.queued")
        self.metrics.set_gauge("service.queue.depth", len(self._heap))

    def peek(self) -> "Optional[tuple[str, JobRequest]]":
        """The job :meth:`pop` would return, without dispatching it."""
        return self._heap[0][2:] if self._heap else None

    def pop(self) -> "Optional[tuple[str, JobRequest]]":
        if not self._heap:
            return None
        _, _, job_id, request = heapq.heappop(self._heap)
        self.metrics.inc(f"service.tenant.{request.tenant}.dispatched")
        self.metrics.inc("service.jobs_dispatched")
        self.metrics.set_gauge("service.queue.depth", len(self._heap))
        return job_id, request

    def __len__(self) -> int:
        return len(self._heap)
