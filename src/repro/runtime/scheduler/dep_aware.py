"""The ``default`` policy: FIFO plus successor-first on task completion.

Paper: "this is the same as [breadth-first] but before going to check in the
queue it first tries to schedule a successor of the task that just finished.
The idea behind this is that they will share data and it will end minimizing
the number of data transfers."
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..task import Task
from .base import Scheduler, TaskQueue, WorkerProtocol

__all__ = ["DependencyAwareScheduler"]


class DependencyAwareScheduler(Scheduler):
    name = "default"

    def __init__(self, notify, metrics=None):
        super().__init__(notify, metrics=metrics)
        self._hints: dict[int, TaskQueue] = {}

    def register_worker(self, worker: WorkerProtocol) -> None:
        super().register_worker(worker)
        self._hints[id(worker)] = TaskQueue()

    def blacklist(self, worker: WorkerProtocol) -> list[Task]:
        stranded = super().blacklist(worker)
        queue = self._hints.pop(id(worker), None)
        if queue is not None:
            self._pending -= len(queue)
            stranded.extend(queue.drain())
        return stranded

    def rebalance(self, worker: WorkerProtocol) -> list[Task]:
        queue = self._hints.get(id(worker))
        if queue is None:
            return []
        self._pending -= len(queue)
        return queue.drain()

    def task_finished(self, task: Task, worker: WorkerProtocol,
                      newly_ready: list[Task]) -> None:
        hint = self._hints.get(id(worker))
        for t in newly_ready:
            self.tasks_submitted += 1
            if self.metrics is not None:
                self.metrics.inc("scheduler.ready_submissions")
            # Freed successors the finishing worker can run go to its hint
            # queue, to be picked before the global queue; the rest go global.
            if hint is not None and worker.accepts(t):
                hint.push(t)
            else:
                self.global_queue.push(t)
        self._pending += len(newly_ready)
        self._notify()

    def next_task(self, worker: WorkerProtocol) -> Optional[Task]:
        hint = self._hints.get(id(worker))
        if hint is not None:
            task = hint.pop_for(worker)
            if task is not None:
                self._pending -= 1
                return task
        task = self.global_queue.pop_for(worker)
        if task is not None:
            self._pending -= 1
            return task
        # Do not let hinted work rot if its worker is busy elsewhere: any
        # compatible worker may drain another worker's hint queue as a last
        # resort (keeps the policy work-conserving).
        for other_id, queue in self._hints.items():
            if other_id == id(worker):
                continue
            task = queue.pop_for(worker)
            if task is not None:
                self._pending -= 1
                return task
        return None

    def peek_for(self, worker: WorkerProtocol, n: int) -> list[Task]:
        """Preview the worker's own hint queue (tasks only it was hinted)
        first, then fill from this proxy's partitioned slice of the global
        queue (see :meth:`Scheduler.peek_for`).  Other workers' hint queues
        are not previewed — their owner will most likely take them."""
        out = self._hints[id(worker)].peek_for(worker, n)
        if len(out) < n:
            seen = {t.tid for t in out}
            for t in self._peek_partitioned(worker, n - len(out)):
                if t.tid not in seen:
                    out.append(t)
        return out[:n]

    def recount_pending(self) -> int:
        return len(self.global_queue) + sum(len(q) for q in self._hints.values())
