"""The policy table: what differs between the scheduling policies.

Every policy runs the same core (:class:`~.base.Scheduler`): one queue per
place, one shared queue, a poll that looks into its own queue, then the
shared queue, then tries to steal.  A policy is a :class:`Policy` record
choosing, per column,

* **place** — where a task that became ready is queued;
* **steal** — what an idle worker does once its own and the shared queue
  came up empty (``None``: nothing);
* **queue** — the discipline of the queues (FIFO, or highest bottom level
  first);
* **release** — optionally, how the tasks released by a finished task
  enter the queues when that differs from submitting them one by one;
* **peek_shared** — whether the prestage lookahead may preview the shared
  queue (see :meth:`~.base.Scheduler.peek_for`).

Adding a policy is adding a row to :data:`POLICIES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ...memory.directory import Directory
from ..task import Task
from .base import PriorityTaskQueue, Scheduler, TaskQueue, WorkerProtocol

__all__ = ["Policy", "POLICIES", "locality_pulls", "locality_score"]


# -- queue disciplines ------------------------------------------------------

def fifo(sched: Scheduler) -> TaskQueue:
    return TaskQueue()


def by_bottom_level(sched: Scheduler) -> PriorityTaskQueue:
    return PriorityTaskQueue(sched.estimator.bottom_level)


@dataclass(frozen=True)
class Policy:
    name: str
    place: Callable[[Scheduler, Task], None]
    steal: Optional[Callable[[Scheduler, WorkerProtocol], Optional[Task]]]
    queue: Callable[[Scheduler], "TaskQueue | PriorityTaskQueue"] = fifo
    release: Optional[
        Callable[[Scheduler, WorkerProtocol, "list[Task]"], None]] = None
    peek_shared: bool = True


# -- placement --------------------------------------------------------------

def locality_pulls(directory: Directory, task: Task) -> list[tuple[int, set]]:
    """One directory resolution per access: ``(weighted bytes, holder
    spaces)`` tuples, reused to score every candidate worker against the
    same snapshot (instead of workers x accesses directory lookups).
    The holder sets are the directory's live sets — placement is
    synchronous, so nothing mutates them between here and scoring, and
    skipping the per-access copies is measurable on figure workloads."""
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


def place_shared(sched: Scheduler, task: Task) -> None:
    """``bf`` / ``default``: plain FIFO over the shared queue."""
    sched.shared.push(task)


def _place_by_locality(sched: Scheduler, task: Task, deal) -> None:
    """Queue ``task`` at the accepting place with the highest affinity
    score (paper, after Martinell et al.: "this score is based on where
    each data specified by the task is located and also takes into account
    the size of that data").  With no pull anywhere, ``deal(sched, task)``
    lists the slots such tasks are dealt over round-robin, one task per
    slot (``None`` stands for the shared queue); an empty list sends the
    task to the shared queue without moving the deal cursor."""
    pulls = locality_pulls(sched.directory, task)
    best: Optional[WorkerProtocol] = None
    best_score = 0
    if pulls:
        for worker in sched.workers:
            if not worker.accepts(task):
                continue
            score = locality_score(pulls, worker)
            if score > best_score:
                best, best_score = worker, score
    if best is None:
        slots = deal(sched, task)
        if slots:
            best = slots[sched._rr % len(slots)]
            sched._rr += 1
    queue = sched.shared if best is None else sched._local[id(best)]
    queue.push(task)


def _node_domains(sched: Scheduler, task: Task) -> list:
    """"If there is no highest affinity, it is placed in a global queue."
    On a cluster master the global queue would be drained almost entirely
    by the (zero-latency) local workers, so no-affinity tasks are dealt
    across the node domains: the master itself (the shared queue) and the
    per-node task pools the communication thread polls (paper Section
    III.D.1)."""
    proxies = [w for w in sched.workers
               if w.kind == "node" and w.accepts(task)]
    return [None, *proxies] if proxies else proxies


def _accepting_places(sched: Scheduler, task: Task) -> list:
    """Every place that could run the task, so the initial (cold)
    wavefront is spread before stealing has any depth to work with."""
    return [w for w in sched.workers if w.accepts(task)]


def place_over_nodes(sched: Scheduler, task: Task) -> None:
    """``affinity`` / ``cp``: locality, else deal over the node domains."""
    _place_by_locality(sched, task, _node_domains)


def place_over_places(sched: Scheduler, task: Task) -> None:
    """``ws``: locality, else deal over every accepting place."""
    _place_by_locality(sched, task, _accepting_places)


# -- release ----------------------------------------------------------------

def release_successor_first(sched: Scheduler, worker: WorkerProtocol,
                            newly_ready: "list[Task]") -> None:
    """``default``.  Paper: "this is the same as [breadth-first] but before
    going to check in the queue it first tries to schedule a successor of
    the task that just finished.  The idea behind this is that they will
    share data and it will end minimizing the number of data transfers."
    Freed successors the finishing worker can run go to its own queue, to
    be picked before the shared queue; the rest go shared."""
    own = sched._local.get(id(worker))
    for task in newly_ready:
        if own is not None and worker.accepts(task):
            own.push(task)
        else:
            sched.shared.push(task)
    sched._entered(len(newly_ready))
    # Policy fact: ``default`` wakes every waiter kind once per finished
    # task, in the fixed smp -> cuda -> node order, even when nothing was
    # released; every other policy wakes per released task, by its device.
    # Simultaneous wake-ups race for the same PCIe/NIC link, so the resume
    # order is part of the schedule: waking per released task here moved
    # 82 of 197 ``default`` makespans of the refactoring oracle
    # (docs/SCHEDULERS.md).
    sched._notify()


def release_repriced(sched: Scheduler, worker: WorkerProtocol,
                     newly_ready: "list[Task]") -> None:
    """``cp``: fold freshly observed durations before pricing the released
    wavefront, so the EMA fallback tracks the run it is in."""
    sched.estimator.refresh()
    for task in newly_ready:
        sched.submit(task)


# -- stealing ---------------------------------------------------------------

def take_any_hint(sched: Scheduler, worker: WorkerProtocol) -> Optional[Task]:
    """``default``: do not let hinted work rot while its worker is busy
    elsewhere — any compatible worker, on any node, drains another
    worker's queue as a last resort.  This is work conservation, not load
    balancing: it ignores ``steal=False`` and is not counted as a steal."""
    own = id(worker)
    for other, queue in sched._local.items():
        if other != own and queue._size:
            task = queue.pop_for(worker)
            if task is not None:
                return task
    return None


def steal_one(sched: Scheduler, thief: WorkerProtocol) -> Optional[Task]:
    """``affinity``: one task from the first victim that has one ("last,
    they try to steal work from other threads to avoid load imbalance")."""
    for queue in sched.victims(thief):
        if queue._size:
            task = queue.pop_for(thief)
            if task is not None:
                sched.note_steal()
                return task
    return None


def steal_half(sched: Scheduler, thief: WorkerProtocol) -> Optional[Task]:
    """``ws``: the back half of the deepest victim in one operation, so one
    steal amortises many future polls instead of ping-ponging single
    tasks.  The thief runs the first stolen task and queues the rest."""
    best: Optional[TaskQueue] = None
    best_key = None
    for queue in sched.victims(thief):
        if not queue._size:
            continue
        # Among equally deep victims prefer the one whose coldest (back)
        # task already pulls toward the thief — the rest of that queue
        # tends to come from the same placement chain.
        coldest = queue.back()
        if not thief.accepts(coldest):
            continue
        bias = locality_score(locality_pulls(sched.directory, coldest), thief)
        key = (queue._size, bias)
        if best_key is None or key > best_key:
            best, best_key = queue, key
    if best is None:
        return None
    # Rounded up, so depth-1 victims still yield.
    first, *rest = best.pop_back_for(thief, (best._size + 1) // 2)
    sched.note_steal()
    sched.metrics.inc("scheduler.ws.stolen_tasks", 1 + len(rest))
    own = sched._local[id(thief)]
    for task in rest:
        own.push(task)
    return first


def steal_most_urgent(sched: Scheduler,
                      thief: WorkerProtocol) -> Optional[Task]:
    """``cp``: the highest-priority acceptable head among the victims —
    under a priority policy the urgent task is the one worth migrating,
    not the coldest."""
    bottom_level = sched.estimator.bottom_level
    best: Optional[PriorityTaskQueue] = None
    best_priority = None
    for queue in sched.victims(thief):
        head = queue.peek_for(thief, 1) if queue._size else None
        if head:
            priority = bottom_level(head[0])
            if best_priority is None or priority > best_priority:
                best, best_priority = queue, priority
    if best is None:
        return None
    sched.note_steal()
    return best.pop_for(thief)


#: the five rows, in :data:`repro.runtime.config.SCHEDULERS` order (which
#: adds ``adaptive``: the same core switching between the last three rows).
POLICIES = {policy.name: policy for policy in (
    Policy("bf", place_shared, steal=None),
    Policy("default", place_shared, take_any_hint,
           release=release_successor_first),
    # Shared-queue and steal candidates are not previewed: any worker may
    # take them, so prestaging their data would fan out to every node.
    Policy("affinity", place_over_nodes, steal_one, peek_shared=False),
    Policy("ws", place_over_places, steal_half),
    Policy("cp", place_over_nodes, steal_most_urgent, queue=by_bottom_level,
           release=release_repriced),
)}
