"""Tasks and their data accesses (paper Section II.A.3).

A task carries dependence/copy clauses (``input`` / ``output`` / ``inout``
regions), a device constraint from the ``target`` construct, an execution
cost description, and — in functional mode — a body to run on the buffers of
whichever address space executes it.

What one ``task`` construct says once — its name, kernel or body and
``copy_deps`` — is a :class:`Codelet` every task of the construct shares
(StarPU's split between a codelet and a per-task record).  State that only
an optional feature reads lives with that feature, not on the task: the
decomposition fields in a :class:`Nest` only decomposing tasks allocate,
the ``taskwait on`` completion events in ``Runtime``, the fault path's
retry counts in ``FaultEngine`` and the liveness claims in the
``DataMover``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Any, Callable, Optional

from ..cuda.kernels import KernelSpec
from ..memory.region import Region

__all__ = ["Direction", "Access", "Codelet", "Nest", "Task", "TaskState"]

_task_ids = itertools.count(1)

#: the cost kwargs of a cuda task built without any: read-only, so every
#: such task may share it.
_NO_COST_KWARGS = MappingProxyType({})


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


@dataclass(frozen=True, slots=True)
class Codelet:
    """The constants of one ``task`` construct, shared by all its tasks.

    A ``@task`` function owns one (rebuilt by ``@target``); a task built by
    hand gets its own, so no table outlives the tasks that use it."""

    name: str
    #: cost of a cuda task: a KernelSpec evaluated on the executing GPU,
    #: whose ``func`` is the functional body.
    kernel: Optional[KernelSpec] = None
    #: functional body (smp tasks).
    func: Optional[Callable] = None
    #: whether dependence clauses also have copy semantics (copy_deps).
    copy_deps: bool = True


class Nest:
    """A decomposing task's nested state (paper Section III.D.1: "tasks
    executed in a remote node can create new tasks").

    ``owner``'s ``subtasks()`` is called after its body runs and returns
    child tasks executed *locally* on the same image, with their own
    sibling-scope dependency graph; the owner completes (for its own
    siblings) once all children have.  A flat child's ``Task.nest`` is its
    parent's record; a child that decomposes in turn keeps its parent in
    its own record's ``parent``."""

    __slots__ = ("owner", "subtasks", "parent", "graph", "left", "done")

    def __init__(self, owner: "Task", subtasks: Callable[[], list]):
        self.owner = owner
        self.subtasks = subtasks
        self.parent: "Task | None" = None
        #: the children's sibling-scope graph, how many are unfinished,
        #: and the event fired when none is (set by ``run_children``).
        self.graph: Any = None
        self.left = 0
        self.done: Any = None


class TaskState(Enum):
    CREATED = "created"
    READY = "ready"
    RUNNING = "running"
    FINISHED = "finished"


class Task:
    """A unit of deferred work, as produced by the ``task`` construct.

    Slotted, because a program may submit its whole task graph before the
    first task runs: every attribute a task can carry is declared here, and
    setting an undeclared one is an AttributeError.

    A ``codelet`` argument (the construct's shared :class:`Codelet`) stands
    for ``name``, ``kernel``, ``func`` and ``copy_deps``, which otherwise
    make the task its own; ``name`` reads through it.  ``subtasks`` makes
    the task decompose: it then owns a :class:`Nest`, so a task decomposes
    iff ``task.nest is not None and task.nest.owner is task``."""

    __slots__ = (
        "codelet", "device", "accesses", "cost_kwargs", "smp_cost", "args",
        "copies", "tid", "state", "pending_preds", "successors",
        "assigned_to", "node_index", "nest",
    )

    def __init__(self, name: str, accesses: tuple = (),
                 device: str = "smp", kernel: Optional[KernelSpec] = None,
                 cost_kwargs: Optional[dict] = None,
                 smp_cost: "float | Callable" = 0.0,
                 func: Optional[Callable] = None, args: tuple = (),
                 copy_deps: bool = True, copies: tuple = (),
                 subtasks: Optional[Callable[[], list]] = None,
                 codelet: Optional[Codelet] = None):
        if codelet is None:
            codelet = Codelet(name, kernel, func, copy_deps)
        self.codelet = codelet
        #: target device kind: "smp" or "cuda" (paper's device clause).
        self.device = device
        self.accesses = accesses
        #: kwargs for the kernel cost model (read-only: tasks with one
        #: scalar binding may share the dict).
        self.cost_kwargs = _NO_COST_KWARGS if cost_kwargs is None \
            else cost_kwargs
        #: cost of an smp task in seconds (constant, or callable of CPUSpec).
        self.smp_cost = smp_cost
        #: argument list: Region placeholders are replaced by buffers at
        #: run time.  Only functional mode runs a body, so in perf mode
        #: ``Runtime.submit`` empties it to ``()``.
        self.args = args
        #: explicit copy clauses (target's copy_in/copy_out/copy_inout):
        #: used when copy_deps is off, or in addition to it for extra
        #: regions the task touches without a dependence.
        self.copies = copies
        self.tid = next(_task_ids)
        # -- runtime state (owned by the dependency graph / scheduler) ----
        self.state = TaskState.CREATED
        #: predecessors not yet finished.
        self.pending_preds = 0
        #: tasks whose dependences include this one, each once, in arc
        #: order.
        self.successors: list = []
        #: the execution place chosen by the scheduler (worker object).
        self.assigned_to: Any = None
        #: node index the task has been dispatched to (cluster layer).
        self.node_index: Optional[int] = None
        #: the :class:`Nest` this task decomposes under (its own) or runs
        #: in as a flat child (its parent's); None for a flat top-level
        #: task.
        self.nest: Optional[Nest] = (None if subtasks is None
                                     else Nest(self, subtasks))
        if device not in ("smp", "cuda"):
            raise ValueError(f"unsupported device {device!r}")
        if device == "cuda" and codelet.kernel is None:
            raise ValueError(f"cuda task {codelet.name!r} needs a kernel")
        seen: dict = {}
        for acc in accesses:
            prev = seen.get(acc.region.key)
            if prev is not None:
                raise ValueError(
                    f"task {codelet.name!r} names region {acc.region!r} "
                    f"twice ({prev.direction.value} and "
                    f"{acc.direction.value}); merge into a single inout "
                    "clause"
                )
            seen[acc.region.key] = acc

    @property
    def name(self) -> str:
        return self.codelet.name

    @property
    def parent(self) -> "Task | None":
        """The task whose decomposition created this one, or None (hot
        paths test ``nest is None`` first)."""
        nest = self.nest
        if nest is None:
            return None
        return nest.parent if nest.owner is self else nest.owner

    # -- clause views ------------------------------------------------------
    @property
    def inputs(self) -> list[Access]:
        return [a for a in self.accesses if a.direction.reads]

    @property
    def copy_accesses(self) -> tuple[Access, ...]:
        """The regions the coherence layer must make available/publish:
        the dependence clauses (under copy_deps) plus explicit copies."""
        base = self.accesses if self.codelet.copy_deps else ()
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
        return (f"<Task #{self.tid} {self.codelet.name!r} {self.device} "
                f"{self.state.value}>")
