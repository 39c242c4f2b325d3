"""The ``cp`` (critical-path lookahead) policy: bottom-level priority.

Tasks are dispatched highest *bottom level* first — the length, in modelled
seconds, of the longest cost-weighted path from the task to a sink of the
dependence graph.  Tasks on the critical path therefore jump every queue,
which is exactly what FIFO policies get wrong on fan-in graphs (tiled
Cholesky: the next panel factorisation sits behind a full wavefront of
trailing-matrix updates it does not depend on).

Costs come from the models the tasks already carry — ``KernelSpec.cost``
for CUDA tasks, ``smp_cost`` for host tasks — evaluated against the specs
of the registered workers' hardware, with an EMA of *observed* per-kind
durations (folded from the ``tasks.{smp,cuda}.duration`` histograms in
:mod:`repro.metrics`) as the fallback for tasks with no usable model.

Bottom levels are computed over the successors known when a task becomes
ready.  Dependences are discovered at submission in this runtime, so a
very-early-ready task may not yet see its full subtree; that truncation
only ever *under*-prioritises the earliest wavefront, where queues are
shallow and ordering hardly matters.
"""

from __future__ import annotations

import heapq
from typing import Optional

from ...memory.directory import Directory
from ..task import Task
from .affinity import locality_pulls, locality_score
from .base import Scheduler, WorkerProtocol, _signature

__all__ = ["CriticalPathScheduler", "BottomLevelEstimator", "PriorityTaskQueue"]

#: nominal task cost (seconds) when neither a model nor an observation
#: exists yet — only the relative ordering matters, and with uniform costs
#: bottom level degrades gracefully to graph depth.
NOMINAL_COST = 1e-4

#: EMA smoothing factor for observed per-kind durations.
EMA_ALPHA = 0.25


class PriorityTaskQueue:
    """Max-priority analogue of :class:`~.base.TaskQueue`.

    Entries are bucketed by acceptance signature like the FIFO queue, so a
    poll inspects at most four heap heads; within a bucket a min-heap over
    ``(-priority, seq)`` yields the highest bottom level first, readiness
    order breaking ties (identical graphs stay bit-identical run to run).
    """

    __slots__ = ("_buckets", "_size", "_seq")

    def __init__(self):
        self._buckets: dict[tuple[str, bool], list] = {}
        self._size = 0
        self._seq = 0

    def push(self, task: Task, priority: float) -> None:
        sig = _signature(task)
        bucket = self._buckets.get(sig)
        if bucket is None:
            bucket = self._buckets[sig] = []
        self._seq += 1
        heapq.heappush(bucket, (-priority, self._seq, task))
        self._size += 1

    def pop_for(self, worker: WorkerProtocol) -> Optional[Task]:
        if not self._size:
            return None
        best = None
        for bucket in self._buckets.values():
            if bucket and worker.accepts(bucket[0][2]):
                if best is None or bucket[0][:2] < best[0][:2]:
                    best = bucket
        if best is None:
            return None
        self._size -= 1
        return heapq.heappop(best)[2]

    def peek_for(self, worker: WorkerProtocol, n: int) -> list[Task]:
        """Up to ``n`` acceptable tasks in dispatch (priority) order,
        without removing them."""
        if not self._size or n <= 0:
            return []
        items = []
        for bucket in self._buckets.values():
            if bucket and worker.accepts(bucket[0][2]):
                items.extend(heapq.nsmallest(n, bucket))
        items.sort(key=lambda e: e[:2])
        return [task for _np, _seq, task in items[:n]]

    def drain(self) -> list[Task]:
        items = []
        for bucket in self._buckets.values():
            items.extend(bucket)
            bucket.clear()
        self._size = 0
        items.sort(key=lambda e: e[1])  # readiness order, like TaskQueue
        return [task for _np, _seq, task in items]

    def drain_unacceptable(self, workers) -> list[Task]:
        stranded = []
        for bucket in self._buckets.values():
            if not bucket:
                continue
            head = bucket[0][2]
            if not any(w.accepts(head) for w in workers):
                stranded.extend(bucket)
                self._size -= len(bucket)
                bucket.clear()
        stranded.sort(key=lambda e: e[1])
        return [task for _np, _seq, task in stranded]

    def __len__(self) -> int:
        return self._size


class BottomLevelEstimator:
    """Cost models + observed-duration EMA -> memoized bottom levels."""

    def __init__(self, metrics=None):
        self.metrics = metrics
        self.gpu_spec = None
        self.cpu_spec = None
        self._memo: dict[int, float] = {}
        self._ema: dict[str, Optional[float]] = {"smp": None, "cuda": None}
        self._folded: dict[str, tuple[int, float]] = {"smp": (0, 0.0),
                                                      "cuda": (0, 0.0)}

    def note_worker(self, worker) -> None:
        """Learn hardware specs from a registering worker (duck-typed: test
        fakes carry neither attribute and fall back to the EMA path)."""
        if self.gpu_spec is None:
            gpu = getattr(worker, "gpu", None)
            if gpu is not None:
                self.gpu_spec = getattr(gpu, "spec", None)
        if self.cpu_spec is None:
            node = getattr(worker, "node", None)
            if node is not None:
                spec = getattr(node, "spec", None)
                if spec is not None:
                    self.cpu_spec = getattr(spec, "cpu", None)

    def refresh(self) -> None:
        """Fold new ``tasks.<kind>.duration`` observations into the EMA."""
        if self.metrics is None:
            return
        for kind in ("smp", "cuda"):
            hist = self.metrics.histogram(f"tasks.{kind}.duration")
            seen_count, seen_total = self._folded[kind]
            if hist.count <= seen_count:
                continue
            batch = (hist.total - seen_total) / (hist.count - seen_count)
            self._folded[kind] = (hist.count, hist.total)
            ema = self._ema[kind]
            self._ema[kind] = batch if ema is None else (
                ema + EMA_ALPHA * (batch - ema))

    def cost(self, task: Task) -> float:
        if task.device == "cuda":
            if task.kernel is not None and self.gpu_spec is not None:
                try:
                    return task.kernel.duration(self.gpu_spec,
                                                **task.cost_kwargs)
                except Exception:
                    pass
            ema = self._ema["cuda"]
        else:
            if self.cpu_spec is not None:
                try:
                    return task.smp_duration(self.cpu_spec)
                except Exception:
                    pass
            ema = self._ema["smp"]
        return ema if ema is not None else NOMINAL_COST

    def bottom_level(self, task: Task) -> float:
        """cost(task) + max over successors of their bottom level, memoized
        by tid; iterative so deep chains (long stream pipelines) don't hit
        the recursion limit."""
        memo = self._memo
        cached = memo.get(task.tid)
        if cached is not None:
            return cached
        # Two-phase postorder: a node is folded only after every successor
        # has been memoized (first pop schedules the children, second pop
        # folds — the graph is a DAG, so this terminates).
        stack = [(task, False)]
        while stack:
            node, ready = stack.pop()
            if node.tid in memo:
                continue
            if ready:
                memo[node.tid] = self.cost(node) + max(
                    (memo[s.tid] for s in node.successors), default=0.0)
                continue
            stack.append((node, True))
            for succ in node.successors:
                if succ.tid not in memo:
                    stack.append((succ, False))
        return memo[task.tid]


class CriticalPathScheduler(Scheduler):
    name = "cp"

    def __init__(self, notify, directory: Directory, steal: bool = True,
                 rr_chunk: int = 1, metrics=None,
                 estimator: Optional[BottomLevelEstimator] = None):
        super().__init__(notify, metrics=metrics)
        self.directory = directory
        self.steal = steal
        self.rr_chunk = max(1, rr_chunk)
        self.estimator = estimator or BottomLevelEstimator(metrics)
        self._local: dict[int, PriorityTaskQueue] = {}
        self._pglobal = PriorityTaskQueue()
        self.stolen = 0
        self._rr = 0

    # -- wiring -----------------------------------------------------------
    def register_worker(self, worker: WorkerProtocol) -> None:
        super().register_worker(worker)
        self.estimator.note_worker(worker)
        self._local[id(worker)] = PriorityTaskQueue()

    def blacklist(self, worker: WorkerProtocol) -> list[Task]:
        stranded = super().blacklist(worker)
        queue = self._local.pop(id(worker), None)
        if queue is not None:
            self._pending -= len(queue)
            stranded.extend(queue.drain())
        return stranded

    def rebalance(self, worker: WorkerProtocol) -> list[Task]:
        queue = self._local.get(id(worker))
        if queue is None:
            return []
        self._pending -= len(queue)
        return queue.drain()

    def drain_unrunnable(self) -> list[Task]:
        stranded = self.global_queue.drain_unacceptable(self.workers)
        stranded.extend(self._pglobal.drain_unacceptable(self.workers))
        for queue in self._local.values():
            stranded.extend(queue.drain_unacceptable(self.workers))
        self._pending -= len(stranded)
        return stranded

    def drain_shared(self) -> list[Task]:
        moved = super().drain_shared()
        self._pending -= len(self._pglobal)
        moved.extend(self._pglobal.drain())
        return moved

    # -- placement --------------------------------------------------------
    def task_finished(self, task: Task, worker: WorkerProtocol,
                      newly_ready: list[Task]) -> None:
        # Fold freshly observed durations before pricing the released
        # wavefront: the EMA fallback then tracks the run it is in.
        self.estimator.refresh()
        super().task_finished(task, worker, newly_ready)

    def _place(self, task: Task) -> None:
        priority = self.estimator.bottom_level(task)
        pulls = locality_pulls(self.directory, task)
        best: Optional[WorkerProtocol] = None
        best_score = 0
        if pulls:
            for worker in self.workers:
                if not worker.accepts(task):
                    continue
                score = locality_score(pulls, worker)
                if score > best_score:
                    best, best_score = worker, score
        if best is not None:
            self._local[id(best)].push(task, priority)
            return
        # Same no-affinity dealing as the affinity policy: spread over the
        # node domains so remote nodes see work, slot 0 meaning "keep it on
        # the master" via the (priority) global queue.
        proxies = [w for w in self.workers
                   if w.kind == "node" and w.accepts(task)]
        if proxies:
            domains = len(proxies) + 1
            slot = (self._rr // self.rr_chunk) % domains
            self._rr += 1
            if slot > 0:
                self._local[id(proxies[slot - 1])].push(task, priority)
                return
        self._pglobal.push(task, priority)

    # -- dispatch ---------------------------------------------------------
    def next_task(self, worker: WorkerProtocol) -> Optional[Task]:
        task = self._local[id(worker)].pop_for(worker)
        if task is not None:
            self._pending -= 1
            return task
        task = self._pglobal.pop_for(worker)
        if task is not None:
            self._pending -= 1
            return task
        if self.steal and worker.kind != "node":
            # Steal the *highest-priority* acceptable head among same-node
            # victims — under a priority policy the urgent task is the one
            # worth migrating, not the coldest.
            node_index = worker.node_index
            best_queue = None
            best_task = None
            best_pri = None
            for other in self.workers:
                if other is worker or other.kind == "node":
                    continue
                if other.node_index != node_index:
                    continue
                queue = self._local[id(other)]
                head = queue.peek_for(worker, 1)
                if not head:
                    continue
                pri = self.estimator.bottom_level(head[0])
                if best_pri is None or pri > best_pri:
                    best_queue, best_task, best_pri = queue, head[0], pri
            if best_queue is not None:
                task = best_queue.pop_for(worker)
                if task is not None:
                    self._pending -= 1
                    self.stolen += 1
                    if self.metrics is not None:
                        self.metrics.inc("scheduler.steals")
                    return task
        return None

    # -- prestage lookahead ----------------------------------------------
    def peek_for(self, worker: WorkerProtocol, n: int) -> list[Task]:
        """Preview the worker's local priority queue in dispatch order,
        then fill from this proxy's partitioned slice of the (priority)
        global queue."""
        out = self._local[id(worker)].peek_for(worker, n)
        if len(out) < n:
            seen = {t.tid for t in out}
            for t in self._peek_partitioned(worker, n - len(out),
                                            queue=self._pglobal):
                if t.tid not in seen:
                    out.append(t)
        return out[:n]

    def recount_pending(self) -> int:
        return (len(self.global_queue) + len(self._pglobal)
                + sum(len(q) for q in self._local.values()))
