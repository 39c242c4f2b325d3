"""The ``ws`` (work-stealing) policy: per-worker deques, steal-half.

Classic Cilk-style decentralised load balancing adapted to the simulated
Nanos++ runtime: every execution place owns a private deque; ready tasks
are placed by locality (the affinity scoring shared with
:mod:`.affinity`) or dealt round-robin when no data pulls anywhere; an
idle worker steals the *back half* of the deepest same-node victim deque
in one operation, so one steal amortises many future polls instead of
ping-ponging single tasks.  Victim choice is locality-biased: among the
deepest deques the thief prefers the victim whose queued work's data is
already resident in the thief's domain.

Stealing never crosses node boundaries and never involves the cluster
master's node proxies (the paper's runtime does not migrate work between
nodes once dealt; the proxies' queues are drained by the communication
thread only).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ...memory.directory import Directory
from ..task import Task
from .affinity import locality_pulls, locality_score
from .base import Scheduler, WorkerProtocol

__all__ = ["WorkStealingScheduler"]


class WorkStealingScheduler(Scheduler):
    name = "ws"

    def __init__(self, notify, directory: Directory, steal: bool = True,
                 rr_chunk: int = 1, metrics=None):
        super().__init__(notify, metrics=metrics)
        self.directory = directory
        self.steal = steal
        self.rr_chunk = max(1, rr_chunk)
        #: id(worker) -> deque of (seq, task); owners pop the front (FIFO,
        #: readiness order), thieves take from the back (coldest work, the
        #: part the owner would reach last).
        self._deques: dict[int, deque] = {}
        self.stolen = 0          # steal operations
        self.stolen_tasks = 0    # tasks moved by steals
        self._seq = 0
        self._rr = 0

    # -- wiring -----------------------------------------------------------
    def register_worker(self, worker: WorkerProtocol) -> None:
        super().register_worker(worker)
        self._deques[id(worker)] = deque()

    def blacklist(self, worker: WorkerProtocol) -> list[Task]:
        stranded = super().blacklist(worker)
        dq = self._deques.pop(id(worker), None)
        if dq:
            self._pending -= len(dq)
            stranded.extend(task for _seq, task in dq)
            dq.clear()
        return stranded

    def rebalance(self, worker: WorkerProtocol) -> list[Task]:
        dq = self._deques.get(id(worker))
        if not dq:
            return []
        moved = [task for _seq, task in dq]
        self._pending -= len(moved)
        dq.clear()
        return moved

    def drain_unrunnable(self) -> list[Task]:
        stranded = super().drain_unrunnable()
        for dq in self._deques.values():
            if not dq:
                continue
            keep, dead = [], []
            for seq, task in dq:
                if any(w.accepts(task) for w in self.workers):
                    keep.append((seq, task))
                else:
                    dead.append(task)
            if dead:
                dq.clear()
                dq.extend(keep)
                self._pending -= len(dead)
                stranded.extend(dead)
        return stranded

    # -- placement --------------------------------------------------------
    def _place(self, task: Task) -> None:
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
        if best is None:
            # No data pull anywhere: deal round-robin over every place
            # that could run the task, so the initial (cold) wavefront is
            # spread before stealing has any depth to work with.
            takers = [w for w in self.workers if w.accepts(task)]
            if takers:
                best = takers[(self._rr // self.rr_chunk) % len(takers)]
                self._rr += 1
        if best is None:
            self.global_queue.push(task)
            return
        self._seq += 1
        self._deques[id(best)].append((self._seq, task))

    # -- dispatch ---------------------------------------------------------
    @staticmethod
    def _pop_front(dq: deque, worker: WorkerProtocol) -> Optional[Task]:
        """Pop the first entry ``worker`` accepts (placement targets only
        acceptable workers, so this is the head except when a fault made a
        place reject a device kind after the fact)."""
        for i in range(len(dq)):
            if worker.accepts(dq[0][1]):
                task = dq.popleft()[1]
                dq.rotate(i)  # undo the scan rotation
                return task
            dq.rotate(-1)
        # A full scan rotates by -len, i.e. back to the original order.
        return None

    def next_task(self, worker: WorkerProtocol) -> Optional[Task]:
        dq = self._deques[id(worker)]
        task = self._pop_front(dq, worker) if dq else None
        if task is None and self.global_queue._size:
            task = self.global_queue.pop_for(worker)
        if task is None and self.steal and worker.kind != "node":
            # A steal moves the rest of its loot between deques; only the
            # task handed out leaves the scheduler.
            task = self._steal(worker)
        if task is not None:
            self._pending -= 1
        return task

    def _steal(self, thief: WorkerProtocol) -> Optional[Task]:
        node_index = thief.node_index
        best_victim: Optional[deque] = None
        best_key = None
        for other in self.workers:
            if other is thief or other.kind == "node":
                continue
            if other.node_index != node_index:
                # Paper semantics: no work migration between cluster nodes.
                continue
            dq = self._deques[id(other)]
            if not dq:
                continue
            # Deepest deque first; among equals prefer the victim whose
            # coldest (back) task already pulls toward the thief — the rest
            # of that deque tends to come from the same placement chain.
            back_task = dq[-1][1]
            if not thief.accepts(back_task):
                continue
            bias = locality_score(locality_pulls(self.directory, back_task),
                                  thief)
            key = (len(dq), bias)
            if best_key is None or key > best_key:
                best_victim, best_key = dq, key
        if best_victim is None:
            return None
        # Take the back half (rounded up, so depth-1 victims still yield):
        # scan from the back collecting entries the thief accepts.
        take = (len(best_victim) + 1) // 2
        loot: list[tuple[int, Task]] = []
        keep: list[tuple[int, Task]] = []
        while best_victim and len(loot) < take:
            entry = best_victim.pop()
            if thief.accepts(entry[1]):
                loot.append(entry)
            else:
                keep.append(entry)
        best_victim.extend(reversed(keep))
        if not loot:
            return None
        loot.reverse()  # back-of-deque pops reversed readiness order
        self.stolen += 1
        self.stolen_tasks += len(loot)
        if self.metrics is not None:
            self.metrics.inc("scheduler.steals")
            self.metrics.inc("scheduler.ws.stolen_tasks", len(loot))
        first = loot[0][1]
        self._deques[id(thief)].extend(loot[1:])
        return first

    # -- prestage lookahead ----------------------------------------------
    def peek_for(self, worker: WorkerProtocol, n: int) -> list[Task]:
        """Preview the worker's own deque front (its committed work) and
        fill from this proxy's partitioned global-queue slice.  Steal
        candidates are not previewed — prestaging a victim's data would
        race the victim's own execution of it."""
        out: list[Task] = []
        for _seq, task in self._deques[id(worker)]:
            if len(out) >= n:
                break
            if worker.accepts(task):
                out.append(task)
        if len(out) < n:
            seen = {t.tid for t in out}
            for t in self._peek_partitioned(worker, n - len(out)):
                if t.tid not in seen:
                    out.append(t)
        return out[:n]

    def recount_pending(self) -> int:
        return len(self.global_queue) + sum(len(d) for d in self._deques.values())
