"""Property test: the indexed TaskQueue preserves the old scan's order.

The seed TaskQueue was a single deque scanned linearly per poll; the indexed
queue buckets tasks by acceptance signature and pops across bucket heads.
For any interleaving of pushes, polls and back-steals by any mix of the
runtime's worker kinds, both must hand out exactly the same tasks at every
step — that equivalence is what makes the swap invisible to simulated time.
The steal reference is the back-scan the ``ws`` policy ran over its private
single deques before it moved onto TaskQueue.
"""

from collections import deque
from dataclasses import dataclass
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.scheduler.base import TaskQueue


@dataclass
class FakeTask:
    """Just the attributes TaskQueue and accepts() consult."""

    tid: int
    device: str                    # "smp" | "cuda"
    parent: Optional[object]       # None -> top-level

    @property
    def nest(self):
        """A child's decomposition record stands in as its parent."""
        return self.parent


@dataclass
class FakeWorker:
    """Acceptance mirrors SMPWorker / GPUExecutionManager / NodeProxy."""

    kind: str                      # "smp" | "gpu" | "node"
    node_index: int = 0
    space: object = None

    def accepts(self, task) -> bool:
        if self.kind == "smp":
            return task.device == "smp"
        if self.kind == "gpu":
            return task.device == "cuda"
        return task.parent is None  # node proxy: any top-level task


class ReferenceQueue:
    """The seed implementation: one deque, linear scan-and-delete."""

    def __init__(self):
        self._q = deque()

    def push(self, task):
        self._q.append(task)

    def back(self):
        return self._q[-1] if self._q else None

    def pop_back_for(self, worker, k):
        """Scan from the back collecting up to ``k`` entries the worker
        accepts; stepped-over entries keep their place."""
        loot, keep = [], []
        while self._q and len(loot) < k:
            task = self._q.pop()
            (loot if worker.accepts(task) else keep).append(task)
        self._q.extend(reversed(keep))
        loot.reverse()  # back-of-deque pops reversed readiness order
        return loot

    def pop_for(self, worker):
        for i, task in enumerate(self._q):
            if worker.accepts(task):
                del self._q[i]
                return task
        return None

    def __len__(self):
        return len(self._q)


WORKERS = [
    FakeWorker("smp"),
    FakeWorker("gpu"),
    FakeWorker("node"),
]

_PARENT = object()

# An operation is a push of a task with a random signature, a poll by a
# random worker kind, or that worker stealing up to k tasks from the back.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"),
                  st.sampled_from(["smp", "cuda"]),
                  st.booleans()),         # top-level?
        st.tuples(st.just("pop"), st.sampled_from(range(len(WORKERS)))),
        st.tuples(st.just("steal"), st.sampled_from(range(len(WORKERS))),
                  st.integers(min_value=0, max_value=6)),
    ),
    min_size=1, max_size=200,
)


@settings(max_examples=200, deadline=None)
@given(ops=_ops)
def test_indexed_queue_matches_reference_scan(ops):
    indexed, reference = TaskQueue(), ReferenceQueue()
    next_tid = 0
    for op in ops:
        if op[0] == "push":
            _, device, toplevel = op
            task = FakeTask(tid=next_tid, device=device,
                            parent=None if toplevel else _PARENT)
            next_tid += 1
            indexed.push(task)
            reference.push(task)
        elif op[0] == "steal":
            worker = WORKERS[op[1]]
            assert indexed.back() is reference.back()
            got = indexed.pop_back_for(worker, op[2])
            want = reference.pop_back_for(worker, op[2])
            assert [t.tid for t in got] == [t.tid for t in want]
        else:
            worker = WORKERS[op[1]]
            got = indexed.pop_for(worker)
            want = reference.pop_for(worker)
            assert (got.tid if got else None) == \
                   (want.tid if want else None)
        assert len(indexed) == len(reference)
    # Drain both completely with alternating workers: full order must match.
    for worker in WORKERS * (len(reference) + 1):
        got, want = indexed.pop_for(worker), reference.pop_for(worker)
        assert (got.tid if got else None) == (want.tid if want else None)
    assert len(indexed) == 0 and len(reference) == 0
