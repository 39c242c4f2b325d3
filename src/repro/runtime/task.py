"""Tasks and their data accesses (paper Section II.A.3).

A task carries dependence/copy clauses (``input`` / ``output`` / ``inout``
regions), a device constraint from the ``target`` construct, an execution
cost description, and — in functional mode — a body to run on the buffers of
whichever address space executes it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Optional

from ..cuda.kernels import KernelSpec
from ..memory.region import Region

__all__ = ["Direction", "Access", "Task", "TaskState"]

_task_ids = itertools.count(1)


class Direction(Enum):
    IN = "input"
    OUT = "output"
    INOUT = "inout"


# ``reads``/``writes`` are plain member attributes rather than properties:
# clause checks run per access on every graph insertion, stage-in and
# commit, and a property call was measurable there.
Direction.IN.reads, Direction.IN.writes = True, False
Direction.OUT.reads, Direction.OUT.writes = False, True
Direction.INOUT.reads, Direction.INOUT.writes = True, True


@dataclass(frozen=True, slots=True)
class Access:
    """One dependence clause entry: a region and its direction.  Immutable,
    so the task constructs share one instance per (region, direction)."""

    region: Region
    direction: Direction

    def __repr__(self) -> str:
        return f"<{self.direction.value} {self.region!r}>"


class TaskState(Enum):
    CREATED = "created"
    READY = "ready"
    RUNNING = "running"
    FINISHED = "finished"


@dataclass(slots=True)
class Task:
    """A unit of deferred work, as produced by the ``task`` construct.

    Slotted, because a program may submit its whole task graph before the
    first task runs: every attribute a task can carry is declared here, and
    setting an undeclared one is an AttributeError."""

    name: str
    accesses: tuple[Access, ...] = ()
    #: target device kind: "smp" or "cuda" (paper's device clause).
    device: str = "smp"
    #: cost of a cuda task: a KernelSpec evaluated on the executing GPU.
    kernel: Optional[KernelSpec] = None
    #: kwargs for the kernel cost model (read-only: tasks with one scalar
    #: binding may share the dict).
    cost_kwargs: dict = field(default_factory=dict)
    #: cost of an smp task in seconds (constant, or callable of CPUSpec).
    smp_cost: "float | Callable" = 0.0
    #: functional body (smp tasks); cuda tasks use ``kernel.func``.
    func: Optional[Callable] = None
    #: argument list: Region placeholders are replaced by buffers at run
    #: time.  Only functional mode runs a body, so in perf mode
    #: ``Runtime.submit`` empties it to ``()``.
    args: tuple = ()
    #: whether dependence clauses also have copy semantics (copy_deps).
    copy_deps: bool = True
    #: explicit copy clauses (target's copy_in/copy_out/copy_inout): used
    #: when copy_deps is off, or in addition to it for extra regions the
    #: task touches without a dependence.
    copies: tuple[Access, ...] = ()
    parent: "Task | None" = None
    #: optional data-decomposition hook (paper Section III.D.1: "tasks
    #: executed in a remote node can create new tasks"): called after the
    #: body runs, returns child tasks executed *locally* on the same image
    #: with their own sibling-scope dependency graph; the parent completes
    #: (for its own siblings) once all children have.
    subtasks: Optional[Callable[[], list]] = None
    tid: int = field(default_factory=lambda: next(_task_ids))

    # -- runtime state (owned by the dependency graph / scheduler) -------
    state: TaskState = TaskState.CREATED
    #: predecessors not yet finished.
    pending_preds: int = 0
    #: tasks whose dependences include this one, each once, in arc order.
    successors: list = field(default_factory=list)
    #: the execution place chosen by the scheduler (worker object).
    assigned_to: Any = None
    #: completion event, created on demand by the first waiter
    #: (``Runtime.taskwait_on``) and None while nobody waits.  Completion
    #: triggers it, or a throwaway event in its place, so the event
    #: sequence does not depend on whether anybody waited.
    done: Any = None
    #: node index the task has been dispatched to (cluster layer).
    node_index: Optional[int] = None
    #: re-execution count under fault injection (bounded by
    #: ``FaultPlan.max_task_retries``).
    retries: int = 0
    #: a GPU prefetch already staged the inputs on the assigned device.
    _staged: bool = field(default=False, init=False, repr=False,
                          compare=False)
    #: a decomposing parent's children: their sibling-scope graph, how many
    #: are unfinished, and the event fired when none is.
    _child_graph: Any = field(default=None, init=False, repr=False,
                              compare=False)
    _children_left: int = field(default=0, init=False, repr=False,
                                compare=False)
    _children_done: Any = field(default=None, init=False, repr=False,
                                compare=False)
    #: the liveness tracker's claim, from submission until retirement.
    _liveness_entries: Optional[list] = field(default=None, init=False,
                                              repr=False, compare=False)

    def __post_init__(self):
        if self.device not in ("smp", "cuda"):
            raise ValueError(f"unsupported device {self.device!r}")
        if self.device == "cuda" and self.kernel is None:
            raise ValueError(f"cuda task {self.name!r} needs a kernel")
        seen: dict = {}
        for acc in self.accesses:
            prev = seen.get(acc.region.key)
            if prev is not None:
                raise ValueError(
                    f"task {self.name!r} names region {acc.region!r} twice "
                    f"({prev.direction.value} and {acc.direction.value}); "
                    "merge into a single inout clause"
                )
            seen[acc.region.key] = acc

    # -- clause views ------------------------------------------------------
    @property
    def inputs(self) -> list[Access]:
        return [a for a in self.accesses if a.direction.reads]

    @property
    def outputs(self) -> list[Access]:
        return [a for a in self.accesses if a.direction.writes]

    @property
    def copy_accesses(self) -> tuple[Access, ...]:
        """The regions the coherence layer must make available/publish:
        the dependence clauses (under copy_deps) plus explicit copies."""
        base = self.accesses if self.copy_deps else ()
        if not self.copies:
            return base
        seen = {a.region.key for a in base}
        return base + tuple(c for c in self.copies
                            if c.region.key not in seen)

    def smp_duration(self, cpu_spec) -> float:
        if callable(self.smp_cost):
            return self.smp_cost(cpu_spec)
        return float(self.smp_cost)

    def __repr__(self) -> str:
        return f"<Task #{self.tid} {self.name!r} {self.device} {self.state.value}>"
