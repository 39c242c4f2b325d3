"""The scheduler core and its queues (paper Section III.C.2).

Workers (SMP worker threads, GPU manager threads, and — on the master of a
cluster — the per-remote-node proxies served by the communication thread)
poll their scheduler for ready tasks.  Device constraints are respected
everywhere: a ``cuda`` task is only handed to a worker that can run it.

The paper describes its policies as variations of one loop ("the same as
breadth-first but before going to check in the queue it first tries…",
"first look into their local queue, then into the global queue and last,
they try to steal"), and that is how they are built: :class:`Scheduler`
owns one queue per registered place plus one shared queue and runs that
loop; what differs between policies — where a ready task is placed, how an
idle worker steals, the queue discipline — is a row of
:data:`~.policies.POLICIES`.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Callable, Optional, Protocol

from ...memory.directory import Directory
from ...metrics import CounterRegistry
from ..task import Task
from .critical_path import BottomLevelEstimator

if TYPE_CHECKING:  # pragma: no cover - the table imports this module
    from .policies import Policy

__all__ = ["WorkerProtocol", "Scheduler", "TaskQueue", "PriorityTaskQueue"]


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
    """The acceptance signature the queues bucket by (see WorkerProtocol)."""
    return (task.device, task.nest is None or task.parent is None)


class _SignatureBuckets:
    """What the two queue disciplines share: ready tasks bucketed by
    acceptance signature, every entry a tuple ending ``(..., seq, task)``
    with ``seq`` the queue's readiness (push) order.  Signature purity
    (see :class:`WorkerProtocol`) means a bucket's head answers for the
    whole bucket."""

    __slots__ = ("_buckets", "_size", "_seq")

    def __init__(self):
        self._buckets: dict[tuple[str, bool], "deque | list"] = {}
        self._size = 0
        self._seq = 0

    @staticmethod
    def _in_readiness_order(entries: list) -> list[Task]:
        entries.sort(key=lambda entry: entry[-2])
        return [entry[-1] for entry in entries]

    def drain(self) -> list[Task]:
        """Remove and return every queued task, in readiness order."""
        entries: list = []
        for bucket in self._buckets.values():
            entries.extend(bucket)
            bucket.clear()
        self._size = 0
        return self._in_readiness_order(entries)

    def drain_unacceptable(self, workers) -> list[Task]:
        """Remove tasks no worker in ``workers`` accepts any more (after a
        blacklist), in readiness order."""
        stranded: list = []
        for bucket in self._buckets.values():
            if bucket and not any(w.accepts(bucket[0][-1]) for w in workers):
                stranded.extend(bucket)
                self._size -= len(bucket)
                bucket.clear()
        return self._in_readiness_order(stranded)

    def __len__(self) -> int:
        return self._size


class TaskQueue(_SignatureBuckets):
    """FIFO of ready tasks (readiness order) with device-aware extraction.

    Each bucket is a deque of ``(sequence, task)`` kept in readiness order.
    A poll inspects only the head of each bucket (at most four) and pops
    the acceptable head with the lowest sequence number — the same task a
    scan of one deque would have returned, in O(1) amortized instead of
    O(pending) per poll.  Owners pop the front; the ``ws`` policy's thieves
    take from the back (:meth:`back`, :meth:`pop_back_for`).
    """

    __slots__ = ()

    def push(self, task: Task) -> None:
        sig = _signature(task)
        bucket = self._buckets.get(sig)
        if bucket is None:
            bucket = self._buckets[sig] = deque()
        self._seq += 1
        bucket.append((self._seq, task))
        self._size += 1

    def peek_for(self, worker: WorkerProtocol, n: int) -> list[Task]:
        """Up to ``n`` queued tasks the worker could execute, in readiness
        order, *without* removing them (datamove prestage lookahead)."""
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
        return self._in_readiness_order(items)[:n]

    def pop_for(self, worker: WorkerProtocol) -> Optional[Task]:
        """First queued task the worker can execute (stable order)."""
        if not self._size:
            # Idle polls vastly outnumber successful pops; answer them
            # without touching the buckets.
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

    def back(self) -> Optional[Task]:
        """The task queued last — the one its owner would reach last."""
        last: Optional[tuple[int, Task]] = None
        for bucket in self._buckets.values():
            if bucket and (last is None or bucket[-1][0] > last[0]):
                last = bucket[-1]
        return None if last is None else last[1]

    def pop_back_for(self, worker: WorkerProtocol, k: int) -> list[Task]:
        """Remove up to ``k`` tasks ``worker`` accepts, walking from the
        back; tasks it does not accept are stepped over and stay queued.
        The loot is returned in readiness order."""
        tails = [bucket for bucket in self._buckets.values()
                 if bucket and worker.accepts(bucket[0][1])]
        loot: list[tuple[int, Task]] = []
        while tails and len(loot) < k:
            bucket = max(tails, key=lambda b: b[-1][0])
            loot.append(bucket.pop())
            if not bucket:
                tails.remove(bucket)
        self._size -= len(loot)
        return self._in_readiness_order(loot)


class PriorityTaskQueue(_SignatureBuckets):
    """Max-priority analogue of :class:`TaskQueue` (the ``cp`` policy).

    ``priority`` prices a task when it is pushed.  Within a bucket a
    min-heap over ``(-priority, seq)`` yields the highest priority first,
    readiness order breaking ties (identical graphs stay bit-identical run
    to run); a poll inspects at most four heap heads.
    """

    __slots__ = ("_priority",)

    def __init__(self, priority: Callable[[Task], float]):
        super().__init__()
        self._priority = priority

    def push(self, task: Task) -> None:
        sig = _signature(task)
        bucket = self._buckets.get(sig)
        if bucket is None:
            bucket = self._buckets[sig] = []
        self._seq += 1
        heapq.heappush(bucket, (-self._priority(task), self._seq, task))
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


class Scheduler:
    """One queue per registered place, one shared queue, one poll loop.

    ``policy`` is a row of :data:`~.policies.POLICIES`; its functions are
    bound once in :meth:`set_policy`, so a submit or a poll makes no
    attribute hop through the record.
    """

    #: prefix of the ``scheduler.policy`` info instrument's value.
    info_prefix = ""

    def __init__(self, notify: Callable[..., None],
                 directory: Optional[Directory], policy: "Policy",
                 steal: bool = True, metrics=None):
        #: callback waking idle workers when work arrives; called with the
        #: ready task's device kind so only places that could run it wake.
        self._notify = notify
        self.directory = directory
        #: ``False`` empties every thief's victim list (:meth:`victims`).
        self.steal = steal
        self.workers: list[WorkerProtocol] = []
        #: tasks currently queued anywhere in this scheduler.  Maintained
        #: at every push / pop / drain, each of which moves the
        #: ``scheduler.pending`` gauge by the same amount in O(1) — on a
        #: cluster every node's scheduler shares the gauge, which so reads
        #: their total; :meth:`recount_pending` is the reference the tests
        #: hold the count to.
        self._pending = 0
        if metrics is None:
            metrics = CounterRegistry()
        #: the :class:`~repro.metrics.CounterRegistry` the scheduler counts
        #: into (``metrics=None``: a private one), namespaced
        #: ``scheduler.*``.
        self.metrics = metrics
        self._c_ready = metrics.counter("scheduler.ready_submissions")
        self._g_pending = metrics.gauge("scheduler.pending")
        #: prices tasks for the ``cp`` row's queues and steal rule (and for
        #: the adaptive controller's spread signal under any row).
        self.estimator = BottomLevelEstimator(metrics)
        self._victims: dict[int, list] = {}
        self._rr = 0
        self._cursors: dict[str, int] = {}
        self.policy = policy
        self.set_policy(policy)

    # -- wiring -----------------------------------------------------------
    def set_policy(self, policy: "Policy") -> None:
        """Adopt a row of the policy table.  The queues must be empty (a
        fresh scheduler, or after :meth:`drain_all`); they are rebuilt in
        the row's discipline."""
        # Policy fact: each dealing policy keeps its own round-robin cursor
        # across switches away and back, so a policy resumes its deal where
        # it left off instead of inheriting another policy's position.
        self._cursors[self.policy.name] = self._rr
        self._rr = self._cursors.get(policy.name, 0)
        self.policy = policy
        self._place = policy.place
        self._steal = policy.steal
        self._release = policy.release
        self.shared = policy.queue(self)
        self._local = {id(w): policy.queue(self) for w in self.workers}
        self._victims.clear()
        self.metrics.set_info("scheduler.policy",
                              self.info_prefix + policy.name)

    def register_worker(self, worker: WorkerProtocol) -> None:
        self.workers.append(worker)
        self._local[id(worker)] = self.policy.queue(self)
        self._victims.clear()
        self.estimator.note_worker(worker)

    def blacklist(self, worker: WorkerProtocol) -> list[Task]:
        """Remove a dead execution place; return the tasks stranded in its
        queue so the caller (the fault engine) can re-place them."""
        stranded = self.rebalance(worker)
        self.workers = [w for w in self.workers if w is not worker]
        self._local.pop(id(worker), None)
        self._victims.clear()
        self.metrics.inc("scheduler.blacklisted")
        return stranded

    def rebalance(self, worker: WorkerProtocol) -> list[Task]:
        """Drain a still-registered worker's own queue (e.g. a node proxy
        whose GPU died) so its tasks can be re-placed."""
        queue = self._local.get(id(worker))
        if queue is None:
            return []
        self._left(len(queue))
        return queue.drain()

    def drain_unrunnable(self) -> list[Task]:
        """Remove queued tasks no remaining worker accepts (called after a
        blacklist leaves a device bucket with no taker)."""
        stranded = self.shared.drain_unacceptable(self.workers)
        for queue in self._local.values():
            stranded.extend(queue.drain_unacceptable(self.workers))
        self._left(len(stranded))
        return stranded

    def drain_all(self) -> list[Task]:
        """Empty every queue; the tasks come back in ``tid`` (creation)
        order, ready to be re-placed after a :meth:`set_policy`."""
        moved = self.shared.drain()
        for queue in self._local.values():
            moved.extend(queue.drain())
        self._left(len(moved))
        moved.sort(key=lambda t: t.tid)
        return moved

    def victims(self, thief: WorkerProtocol) -> list:
        """The queues ``thief`` may steal from, in registration order.

        Stealing stays within the node (the paper does not migrate work
        between the queues of different cluster nodes) and never involves
        the master's node proxies, as victim or as thief: their queues are
        the per-node task pools only the communication thread drains.
        ``steal=False`` leaves every thief without victims.  Cached per
        thief until the worker set or the queues change."""
        queues = self._victims.get(id(thief))
        if queues is None:
            may_steal = self.steal and thief.kind != "node"
            queues = self._victims[id(thief)] = [
                self._local[id(w)] for w in self.workers
                if may_steal and w is not thief and w.kind != "node"
                and w.node_index == thief.node_index]
        return queues

    def note_steal(self) -> None:
        """Count one steal operation."""
        self.metrics.inc("scheduler.steals")

    # -- protocol ------------------------------------------------------------
    def submit(self, task: Task) -> None:
        """A task became ready: place it in some queue."""
        self._place(self, task)
        self._entered(1)
        self._notify(task.device)

    def _entered(self, n: int) -> None:
        """``n`` ready tasks were just pushed: count them, raise the gauge."""
        self._pending += n
        self._c_ready.value += n
        gauge = self._g_pending
        gauge.set(gauge.value + n)

    def _left(self, n: int) -> None:
        """``n`` queued tasks just left: count them down, lower the gauge
        (a fall never moves its high-water mark, so no ``set``)."""
        self._pending -= n
        self._g_pending.value -= n

    def task_finished(self, task: Task, worker: WorkerProtocol,
                      newly_ready: list[Task]) -> None:
        """A task finished on ``worker`` releasing ``newly_ready`` tasks."""
        if self._release is not None:
            self._release(self, worker, newly_ready)
        else:
            for t in newly_ready:
                self.submit(t)

    def next_task(self, worker: WorkerProtocol) -> Optional[Task]:
        """Non-blocking poll for the next task ``worker`` should run: its
        own queue, then the shared queue, then the policy's steal rule."""
        queue = self._local[id(worker)]
        task = queue.pop_for(worker) if queue._size else None
        if task is None and self.shared._size:
            task = self.shared.pop_for(worker)
        if task is None and self._steal is not None:
            # A steal may move more than it returns, but only between
            # queues: one task leaves the scheduler per successful poll.
            task = self._steal(self, worker)
        if task is not None:
            self._pending -= 1                    # _left(1), inlined
            self._g_pending.value -= 1
        return task

    def peek_for(self, worker: WorkerProtocol, n: int) -> list[Task]:
        """Up to ``n`` tasks node proxy ``worker`` would be handed next,
        left queued — the cluster master's prestage lookahead
        (``presend_depth``).  Only node proxies prestage, so other worker
        kinds report no lookahead.

        The proxy's own queue (its committed work) is previewed first.
        Shared-queue tasks may be taken by any worker — naively previewing
        them would prestage the same data to every node (observed to
        congest the master's NIC far beyond what the overlap wins back) —
        so that preview is *partitioned*: the acceptable prefix of the
        shared queue is dealt round-robin across the node proxies by queue
        position, each proxy previewing a disjoint slice.  The slices are
        a heuristic — any proxy may still pop any task — but prestage is
        speculative by design, and a wrong guess costs one extra fetch, not
        correctness.  Steal candidates are never previewed: prestaging a
        victim's data would race the victim's own execution of it."""
        if n <= 0 or worker.kind != "node":
            return []
        out = self._local[id(worker)].peek_for(worker, n)
        want = n - len(out)
        if want and self.policy.peek_shared:
            proxies = [w for w in self.workers if w.kind == "node"]
            rank = next(i for i, w in enumerate(proxies) if w is worker)
            ahead = self.shared.peek_for(worker, want * len(proxies))
            out.extend(ahead[rank::len(proxies)][:want])
        return out

    def recount_pending(self) -> int:
        """``_pending`` recomputed from the queues themselves: O(queues),
        for tests that check the maintained count against it."""
        return len(self.shared) + sum(len(q) for q in self._local.values())
