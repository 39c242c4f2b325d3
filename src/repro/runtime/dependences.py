"""The task dependency graph (paper Section III.C.1).

The runtime maintains a DAG where arcs encode read-after-write,
write-after-read and write-after-write dependences between *sibling* tasks
(dependences never cross the dynamic extent of a task — that restriction is
what makes the hierarchical cluster implementation possible, since a remote
task's children resolve their dependences entirely on the remote node).

Hot-path notes: arc deduplication looks at the predecessor's last
successor only (every arc is created while its successor is being added, so
a repeated arc can only repeat the last one), the region-shape validation
bisects a per-object sorted interval list instead of scanning every shape
ever seen, and per-region reader lists are compacted of finished tasks once
they grow, so WAR fan-out is bounded by the *live* reader count.

Memory notes: a program may submit its whole graph before the first task
runs, so the graph adds nothing per task beyond its arcs and its place in
the per-region writer and reader lists.  Live tasks are a count, not a set
of ids: a task's own state tells whether it was registered, and only its
transition to FINISHED decrements the count.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

from ..memory.region import PartialOverlapError, Region, RegionKey
from .task import Task, TaskState

__all__ = ["DependencyGraph"]

#: Reader-list length beyond which finished readers are compacted away.
_READER_COMPACT_THRESHOLD = 16

_shape_key = (lambda r: (r.start, r.end))


@dataclass
class _RegionState:
    """Per-region bookkeeping for arc construction."""

    last_writer: Optional[Task] = None
    readers_since_write: list[Task] = field(default_factory=list)
    #: reader-list length that triggers the next finished-reader compaction
    #: (doubles with the live count, so compaction is amortized O(1)).
    compact_at: int = _READER_COMPACT_THRESHOLD


class DependencyGraph:
    """Sibling-scope dependency tracking for one parent task."""

    def __init__(self, on_arc: tuple = ()):
        #: the bound ``dep_arc`` probes ``(pred, succ, region, kind,
        #: created)``, fired on *every* arc attempt (deduplicated ones
        #: included, with created=False) so an arc owed to several regions
        #: names all of them.
        self.on_arc = on_arc
        self._regions: dict[RegionKey, _RegionState] = {}
        #: per object id, the distinct region shapes seen, sorted by start.
        self._shapes: dict[int, list[Region]] = {}
        #: registered tasks not yet finished (read-only outside the graph).
        self.live_count = 0

    # -- bookkeeping ------------------------------------------------------
    def _check_shape(self, region: Region) -> None:
        """Validate equal-or-disjoint against prior shapes of the object.

        The stored shapes are pairwise disjoint (duplicates never get here:
        known keys short-circuit in :meth:`_state`), so only the two sorted
        neighbours of the insertion point can possibly overlap.
        """
        seen = self._shapes.setdefault(region.obj.oid, [])
        i = bisect_left(seen, (region.start, region.end), key=_shape_key)
        if i < len(seen) and seen[i].key == region.key:
            return  # exact shape already known
        other = None
        if i > 0 and seen[i - 1].end > region.start:
            other = seen[i - 1]
        elif i < len(seen) and region.end > seen[i].start:
            other = seen[i]
        if other is not None:
            raise PartialOverlapError(
                f"dependence region {region!r} partially overlaps "
                f"{other!r}; unsupported (paper Section II.A.3)"
            )
        seen.insert(i, region)

    def _state(self, region: Region) -> _RegionState:
        st = self._regions.get(region.key)
        if st is None:
            self._check_shape(region)
            st = _RegionState()
            self._regions[region.key] = st
        return st

    def _add_arc(self, pred: Task, succ: Task, region: Region,
                 kind: str) -> None:
        if pred.state is TaskState.FINISHED or pred is succ:
            return
        # Exact: arcs into ``succ`` are made only inside add_task(succ), so
        # an earlier one from ``pred`` is still pred's last successor.
        successors = pred.successors
        created = not successors or successors[-1] is not succ
        if created:
            successors.append(succ)
            succ.pending_preds += 1
        for fn in self.on_arc:
            fn(pred, succ, region, kind, created)

    # -- public protocol ---------------------------------------------------
    def add_task(self, task: Task) -> bool:
        """Register ``task`` (once); returns True when immediately ready."""
        # Registration leaves a task READY, or CREATED with a predecessor
        # pending, so a CREATED task with none has never been registered.
        # The arc deduplication in _add_arc relies on this.
        assert (task.state is TaskState.CREATED
                and task.pending_preds == 0), f"{task!r} registered twice"
        self.live_count += 1
        regions = self._regions
        for acc in task.accesses:
            region = acc.region
            st = regions.get(region.key)
            if st is None:
                st = self._state(region)
            if acc.direction.reads and st.last_writer is not None:
                self._add_arc(st.last_writer, task, region, "raw")
            if acc.direction.writes:
                if st.last_writer is not None:
                    self._add_arc(st.last_writer, task, region, "waw")
                for reader in st.readers_since_write:
                    self._add_arc(reader, task, region, "war")
        # Second pass: update per-region state (every state exists now).
        for acc in task.accesses:
            st = regions[acc.region.key]
            if acc.direction.writes:
                st.last_writer = task
                st.readers_since_write = []
            else:
                readers = st.readers_since_write
                readers.append(task)
                if len(readers) >= st.compact_at:
                    # Finished readers can never source a WAR arc again
                    # (_add_arc skips them); dropping them here keeps the
                    # next writer's fan-out scan bounded by live readers.
                    st.readers_since_write = [
                        t for t in readers
                        if t.state is not TaskState.FINISHED
                    ]
                    st.compact_at = max(_READER_COMPACT_THRESHOLD,
                                        2 * len(st.readers_since_write))
        if task.pending_preds == 0:
            task.state = TaskState.READY
            return True
        return False

    def task_finished(self, task: Task) -> list[Task]:
        """Mark finished; returns successors that became ready (none when
        ``task`` had already finished)."""
        if task.state is TaskState.FINISHED:
            return []
        task.state = TaskState.FINISHED
        self.live_count -= 1
        newly_ready: list[Task] = []
        for succ in task.successors:
            succ.pending_preds -= 1
            assert succ.pending_preds >= 0, "dependency counting broke"
            if succ.pending_preds == 0 and succ.state is TaskState.CREATED:
                succ.state = TaskState.READY
                newly_ready.append(succ)
        return newly_ready

    def last_writer_of(self, region: Region) -> Optional[Task]:
        """Unfinished producer of ``region`` (for taskwait-on).

        ``region`` obeys the clause rule: it must equal or be disjoint from
        every region the graph has seen, or PartialOverlapError is raised
        here, at the call.  A region not seen before is recorded like a
        clause region, so a later clause overlapping it fails at
        submission.
        """
        writer = self._state(region).last_writer
        if writer is None or writer.state is TaskState.FINISHED:
            return None
        return writer
