"""Scheduler interface and shared queue machinery (paper Section III.C.2).

Workers (SMP worker threads, GPU manager threads, and — on the master of a
cluster — the per-remote-node proxies served by the communication thread)
poll their scheduler for ready tasks.  Device constraints are respected
everywhere: a ``cuda`` task is only handed to a worker that can run it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, Protocol

from ..task import Task

__all__ = ["WorkerProtocol", "Scheduler", "TaskQueue"]


class WorkerProtocol(Protocol):
    """What schedulers need to know about an execution place.

    ``accepts`` must be a pure function of the task's *acceptance
    signature* — its ``device`` kind and whether it is top-level
    (``parent is None``).  Every worker in the runtime satisfies this (SMP
    workers take ``smp`` tasks, GPU managers take ``cuda`` tasks, node
    proxies take any top-level task); :class:`TaskQueue` relies on it to
    answer polls without scanning.
    """

    kind: str          # "smp" | "gpu" | "node"
    node_index: int
    space: object      # AddressSpace of the place (host/device space)

    def accepts(self, task: Task) -> bool: ...


def _signature(task: Task) -> tuple[str, bool]:
    """The acceptance signature TaskQueue buckets by (see WorkerProtocol)."""
    return (task.device, task.parent is None)


class TaskQueue:
    """FIFO of ready tasks (readiness order) with device-aware extraction.

    Tasks are bucketed by acceptance signature; each bucket is a deque of
    ``(sequence, task)`` kept in readiness order.  A poll inspects only the
    head of each bucket (at most four) and pops the acceptable head with the
    lowest sequence number — the same task the old full scan would have
    returned, in O(1) amortized instead of O(pending) per poll.
    """

    __slots__ = ("_buckets", "_size", "_back_seq", "_front_seq")

    def __init__(self):
        self._buckets: dict[tuple[str, bool], deque[tuple[int, Task]]] = {}
        self._size = 0
        self._back_seq = 0    # increases on push
        self._front_seq = 0   # decreases on push_front

    def _bucket(self, task: Task) -> deque:
        sig = _signature(task)
        bucket = self._buckets.get(sig)
        if bucket is None:
            bucket = self._buckets[sig] = deque()
        return bucket

    def push(self, task: Task) -> None:
        self._back_seq += 1
        self._bucket(task).append((self._back_seq, task))
        self._size += 1

    def push_front(self, task: Task) -> None:
        self._front_seq -= 1
        self._bucket(task).appendleft((self._front_seq, task))
        self._size += 1

    def peek_for(self, worker: WorkerProtocol, n: int) -> list[Task]:
        """Up to ``n`` queued tasks the worker could execute, in readiness
        order, *without* removing them (datamove prestage lookahead).
        Signature purity (see :class:`WorkerProtocol`) means checking each
        bucket's head covers the whole bucket."""
        if not self._size or n <= 0:
            return []
        items: list[tuple[int, Task]] = []
        for bucket in self._buckets.values():
            if bucket and worker.accepts(bucket[0][1]):
                count = min(n, len(bucket))
                for i, item in enumerate(bucket):
                    if i >= count:
                        break
                    items.append(item)
        items.sort(key=lambda seq_task: seq_task[0])
        return [task for _seq, task in items[:n]]

    def pop_for(self, worker: WorkerProtocol) -> Optional[Task]:
        """First queued task the worker can execute (stable order)."""
        if not self._size:
            # Idle polls vastly outnumber successful pops (every completion
            # wakes every sleeping worker); answer them without touching
            # the buckets.
            return None
        best: Optional[deque] = None
        best_seq = 0
        for bucket in self._buckets.values():
            if not bucket:
                continue
            seq, task = bucket[0]
            if (best is None or seq < best_seq) and worker.accepts(task):
                best, best_seq = bucket, seq
        if best is None:
            return None
        self._size -= 1
        return best.popleft()[1]

    def drain(self) -> list[Task]:
        """Remove and return every queued task, in readiness order."""
        items: list[tuple[int, Task]] = []
        for bucket in self._buckets.values():
            items.extend(bucket)
            bucket.clear()
        self._size = 0
        items.sort(key=lambda seq_task: seq_task[0])
        return [task for _seq, task in items]

    def drain_unacceptable(self, workers) -> list[Task]:
        """Remove tasks no worker in ``workers`` accepts any more (after a
        blacklist); signature purity means checking each bucket's head is
        checking the whole bucket."""
        stranded: list[tuple[int, Task]] = []
        for bucket in self._buckets.values():
            if not bucket:
                continue
            head = bucket[0][1]
            if not any(w.accepts(head) for w in workers):
                stranded.extend(bucket)
                self._size -= len(bucket)
                bucket.clear()
        stranded.sort(key=lambda seq_task: seq_task[0])
        return [task for _seq, task in stranded]

    def __len__(self) -> int:
        return self._size


class Scheduler:
    """Base scheduler: global FIFO; subclasses refine placement."""

    name = "base"

    def __init__(self, notify: Callable[..., None], metrics=None):
        #: callback waking idle workers when work arrives; called with the
        #: ready task's device kind so only places that could run it wake.
        self._notify = notify
        self.workers: list[WorkerProtocol] = []
        self.global_queue = TaskQueue()
        self.tasks_submitted = 0
        #: tasks currently queued anywhere in this scheduler.  Maintained
        #: at every push / pop / drain so the ``scheduler.pending`` gauge
        #: write in :meth:`submit` is O(1); :meth:`recount_pending` is the
        #: reference the tests hold it to.
        self._pending = 0
        #: optional :class:`~repro.metrics.CounterRegistry`; counters are
        #: namespaced ``scheduler.*``.
        self.metrics = metrics
        if metrics is not None:
            self._c_ready = metrics.counter("scheduler.ready_submissions")
            self._g_pending = metrics.gauge("scheduler.pending")
        else:
            self._c_ready = self._g_pending = None

    # -- wiring -----------------------------------------------------------
    def register_worker(self, worker: WorkerProtocol) -> None:
        self.workers.append(worker)

    def blacklist(self, worker: WorkerProtocol) -> list[Task]:
        """Remove a dead execution place; return the tasks stranded in its
        queues so the caller (the fault engine) can re-place them."""
        self.workers = [w for w in self.workers if w is not worker]
        if self.metrics is not None:
            self.metrics.inc("scheduler.blacklisted")
        return []

    def rebalance(self, worker: WorkerProtocol) -> list[Task]:
        """Drain a still-registered worker's private queue (e.g. a node
        proxy whose GPU died) so its tasks can be re-placed.  The base
        scheduler has no private queues."""
        return []

    def drain_unrunnable(self) -> list[Task]:
        """Remove queued tasks no remaining worker accepts (called after a
        blacklist leaves a device bucket with no taker)."""
        stranded = self.global_queue.drain_unacceptable(self.workers)
        self._pending -= len(stranded)
        return stranded

    def drain_shared(self) -> list[Task]:
        """Remove and return every task in the queues no single worker
        owns (the adaptive tier re-places them on a policy switch)."""
        moved = self.global_queue.drain()
        self._pending -= len(moved)
        return moved

    # -- protocol ------------------------------------------------------------
    def submit(self, task: Task) -> None:
        """A task became ready: place it in some queue."""
        self.tasks_submitted += 1
        if self._c_ready is not None:
            self._c_ready.value += 1
        self._place(task)
        self._pending += 1
        if self._g_pending is not None:
            self._g_pending.set(self._pending)
        self._notify(task.device)

    def task_finished(self, task: Task, worker: WorkerProtocol,
                      newly_ready: list[Task]) -> None:
        """A task finished on ``worker`` releasing ``newly_ready`` tasks."""
        for t in newly_ready:
            self.submit(t)

    def next_task(self, worker: WorkerProtocol) -> Optional[Task]:
        """Non-blocking poll for the next task ``worker`` should run."""
        task = self.global_queue.pop_for(worker)
        if task is not None:
            self._pending -= 1
        return task

    def peek_for(self, worker: WorkerProtocol, n: int) -> list[Task]:
        """Up to ``n`` tasks ``worker`` would be handed next, left queued.
        Used by the cluster master's prestage lookahead (presend_depth).

        The base scheduler has only the global queue, whose tasks any
        worker may take — naively previewing it would prestage the same
        data to every node (observed to congest the master's NIC far
        beyond what the overlap wins back).  Instead the preview is
        *partitioned*: the acceptable prefix of the global queue is dealt
        round-robin across the node proxies by queue position, so each
        proxy previews a disjoint slice and no region is speculatively
        fanned out twice.  The slices are a heuristic — any proxy may
        still pop any task — but prestage is speculative by design, and a
        wrong guess costs one extra fetch, not correctness.  Only node
        proxies prestage, so other worker kinds report no lookahead."""
        return self._peek_partitioned(worker, n)

    def _peek_partitioned(self, worker: WorkerProtocol, n: int,
                          queue: "TaskQueue | None" = None) -> list[Task]:
        """Deal ``queue``'s (default: the global queue's) acceptable prefix
        round-robin across the registered node proxies and return this
        proxy's slice (see :meth:`peek_for`)."""
        if n <= 0 or worker.kind != "node":
            return []
        proxies = [w for w in self.workers if w.kind == "node"]
        rank = next((i for i, w in enumerate(proxies) if w is worker), None)
        if rank is None:
            return []
        k = len(proxies)
        src = self.global_queue if queue is None else queue
        candidates = src.peek_for(worker, n * k)
        return [t for i, t in enumerate(candidates) if i % k == rank][:n]

    # -- subclass hook ----------------------------------------------------------
    def _place(self, task: Task) -> None:
        self.global_queue.push(task)

    @property
    def pending(self) -> int:
        """Tasks queued in this scheduler (the maintained count)."""
        return self._pending

    def recount_pending(self) -> int:
        """``pending`` recomputed from the queues themselves: O(queues),
        for tests that check the maintained count against it."""
        return len(self.global_queue)
