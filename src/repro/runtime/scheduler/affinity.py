"""The ``affinity`` (locality-aware) policy, after Martinell et al.

Paper: "when a new task is submitted, the scheduler computes an affinity
score for each location.  This score is based on where each data specified by
the task is located and also takes into account the size of that data (i.e.,
tries to prioritize big data).  This score is used to place the task in the
queue of the thread with the highest affinity.  If there is no highest
affinity, it is placed in a global queue.  When threads request work they
first look into their local queue, then into the global queue and last, they
try to steal work from other threads to avoid load imbalance."
"""

from __future__ import annotations

from typing import Optional

from ...memory.directory import Directory
from ..task import Task
from .base import Scheduler, TaskQueue, WorkerProtocol

__all__ = ["AffinityScheduler", "locality_pulls", "locality_score"]


def locality_pulls(directory: Directory, task: Task) -> list[tuple[int, set]]:
    """One directory resolution per access: ``(weighted bytes, holder
    spaces)`` tuples, reused to score every candidate worker against the
    same snapshot (instead of workers x accesses directory lookups).
    The holder sets are the directory's live sets — placement is
    synchronous, so nothing mutates them between here and scoring, and
    skipping the per-access copies is measurable on figure workloads.

    Shared by every locality-aware policy (affinity, work-stealing victim
    bias, critical-path placement)."""
    pulls = []
    for acc in task.accesses:
        ent = directory.entry(acc.region)
        if not acc.direction.reads and ent.version == 0:
            # A pure output over a never-written region: there is no
            # data anywhere yet (the home entry is just the registration
            # point), so it exerts no pull.
            continue
        # Written data weighs double: keeping the produced (often
        # dirty) copy where it lives avoids migrating it, and its
        # next consumer is usually the next task of the same chain.
        weight = 2 if acc.direction.writes else 1
        pulls.append((weight * acc.region.nbytes, ent.holders))
    return pulls


def locality_score(pulls, worker: WorkerProtocol) -> int:
    """Bytes of the task's data currently resident in the worker's
    domain.  GPU workers score their own device space; node proxies (and
    SMP workers) score every space of their node — the hierarchical
    (node-level) view of the directory."""
    score = 0
    if worker.kind == "gpu":
        space = worker.space
        for nbytes, holders in pulls:
            if space in holders:
                score += nbytes
    else:
        node = worker.node_index
        for nbytes, holders in pulls:
            for s in holders:
                if s.node_index == node:
                    score += nbytes
                    break
    return score


class AffinityScheduler(Scheduler):
    name = "affinity"

    def __init__(self, notify, directory: Directory, steal: bool = True,
                 rr_chunk: int = 1, metrics=None):
        super().__init__(notify, metrics=metrics)
        self.directory = directory
        self.steal = steal
        #: consecutive no-affinity tasks dealt to the same node domain —
        #: blocked loops then land as contiguous chunks, which preserves
        #: row/column reuse for the tasks that consume them.
        self.rr_chunk = max(1, rr_chunk)
        self._local: dict[int, TaskQueue] = {}
        self.stolen = 0
        self._rr = 0

    def register_worker(self, worker: WorkerProtocol) -> None:
        super().register_worker(worker)
        self._local[id(worker)] = TaskQueue()

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

    # -- scoring ------------------------------------------------------------
    def _pulls(self, task: Task) -> list[tuple[int, set]]:
        """See :func:`locality_pulls` (shared with the adaptive tier)."""
        return locality_pulls(self.directory, task)

    @staticmethod
    def _score_from(pulls, worker: WorkerProtocol) -> int:
        """See :func:`locality_score` (shared with the adaptive tier)."""
        return locality_score(pulls, worker)

    def _score(self, task: Task, worker: WorkerProtocol) -> int:
        """Affinity of one worker for one task (kept for introspection;
        placement batches via :meth:`_pulls` + :meth:`_score_from`)."""
        return self._score_from(self._pulls(task), worker)

    def _place(self, task: Task) -> None:
        pulls = self._pulls(task)
        best: Optional[WorkerProtocol] = None
        best_score = 0
        if pulls:
            for worker in self.workers:
                if not worker.accepts(task):
                    continue
                score = self._score_from(pulls, worker)
                if score > best_score:
                    best, best_score = worker, score
        if best is not None:
            self._local[id(best)].push(task)
            return
        # "If there is no highest affinity, it is placed in a global queue."
        # On a cluster master the global queue would be drained almost
        # entirely by the (zero-latency) local workers, so no-affinity tasks
        # are dealt round-robin across the node domains — the per-node task
        # pools the communication thread polls (paper Section III.D.1).
        proxies = [w for w in self.workers
                   if w.kind == "node" and w.accepts(task)]
        if proxies:
            domains = len(proxies) + 1  # remote nodes + the master itself
            slot = (self._rr // self.rr_chunk) % domains
            self._rr += 1
            if slot > 0:
                self._local[id(proxies[slot - 1])].push(task)
                return
        self.global_queue.push(task)

    def next_task(self, worker: WorkerProtocol) -> Optional[Task]:
        local = self._local
        queue = local[id(worker)]
        if queue._size:
            task = queue.pop_for(worker)
            if task is not None:
                self._pending -= 1
                return task
        if self.global_queue._size:
            task = self.global_queue.pop_for(worker)
            if task is not None:
                self._pending -= 1
                return task
        if self.steal:
            # Stealing stays within the node: the paper does not steal
            # between the queues of different cluster nodes.
            node_index = worker.node_index
            for other in self.workers:
                if other is worker or other.node_index != node_index:
                    continue
                if other.kind == "node":
                    continue
                victim = local[id(other)]
                task = victim.pop_for(worker) if victim._size else None
                if task is not None:
                    self._pending -= 1
                    self.stolen += 1
                    if self.metrics is not None:
                        self.metrics.inc("scheduler.steals")
                    return task
        return None

    def peek_for(self, worker: WorkerProtocol, n: int) -> list[Task]:
        """Lookahead into the worker's *local* queue only.  Global-queue and
        steal candidates are deliberately not previewed: any worker may take
        them, so prestaging their data would fan the same speculative
        transfers out to every node (observed to congest the master's NIC
        far beyond what the overlap wins back)."""
        return self._local[id(worker)].peek_for(worker, n)

    def recount_pending(self) -> int:
        return len(self.global_queue) + sum(len(q) for q in self._local.values())
