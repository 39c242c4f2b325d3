"""SMP worker threads: execute ``smp`` tasks on host cores."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..memory.region import Region
from .task import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Image

__all__ = ["SMPWorker", "resolve_args"]


def resolve_args(task: Task, space, watch_args=()) -> list:
    """Replace Region placeholders in the task's args with space buffers.

    Read regions resolve via ``space.read`` (the fetched copy); written
    regions via ``space.writable`` (allocated on demand), so the body mutates
    the executing space's storage in place.

    Each ``watch_args`` interceptor (the sanitizer's, see
    :mod:`repro.runtime.probes`) returns a wrapper every resolved buffer
    passes through — watched views of the same memory, so functional
    results are unchanged while the body's reads and writes are recorded.
    """
    directions = {a.region.key: a.direction
                  for a in (*task.accesses, *task.copies)}
    wraps = [watch(task) for watch in watch_args] if watch_args else ()

    def one(region: Region):
        direction = directions.get(region.key)
        if direction is None:
            raise ValueError(
                f"task {task.name!r} passes region {region!r} without a "
                "dependence clause for it"
            )
        buf = (space.writable(region) if direction.writes
               else space.read(region))
        for wrap in wraps:
            buf = wrap(region, buf)
        return buf

    resolved = []
    for arg in task.args:
        if isinstance(arg, Region):
            resolved.append(one(arg))
        elif (isinstance(arg, tuple) and arg
              and all(isinstance(r, Region) for r in arg)):
            resolved.append([one(r) for r in arg])
        else:
            resolved.append(arg)
    return resolved


class SMPWorker:
    """One host-core worker thread of one image."""

    kind = "smp"

    def __init__(self, image: "Image", worker_index: int):
        self.image = image
        self.rt = image.rt
        self.env = image.rt.env
        self.node = image.node
        self.node_index = image.node.index
        self.space = image.host_space
        self.cache = None  # host memory is not a software cache
        self.worker_index = worker_index
        #: scheduler-visible place label + its per-worker metric key,
        #: interned once instead of f-string-built per finished task.
        self.place_name = f"smp:{self.node_index}:{self.worker_index}"
        self._c_tasks = self.rt.metrics.counter(
            f"worker.{self.place_name}.tasks")

    @property
    def tasks_run(self) -> int:
        """Tasks completed here (``worker.<place>.tasks``)."""
        return self._c_tasks.value

    def accepts(self, task: Task) -> bool:
        return task.device == "smp"

    def run(self):
        """The worker loop (a simulated process)."""
        rt = self.rt
        while rt.running:
            task = self.image.scheduler.next_task(self)
            if task is None:
                yield self.image.wait_for_work("smp")
                continue
            yield from self.execute(task)

    def execute(self, task: Task):
        probes = self.rt.probes
        task.state = TaskState.RUNNING
        task.assigned_to = self
        start = self.env.now
        for fn in probes.task_started:
            fn(task, self)
        if self.rt.config.task_overhead:
            yield self.env.timeout(self.rt.config.task_overhead)
        yield from self.rt.coherence.stage_in(task, self)
        duration = task.smp_duration(self.node.spec.cpu)
        yield from self.node.run_cpu_work(duration)
        if self.rt.config.functional and task.func is not None:
            task.func(*resolve_args(task, self.space, probes.watch_args))
        yield from self.rt.coherence.commit_outputs(task, self)
        if task.subtasks is not None:
            # Hierarchical decomposition: children run on this image with
            # their own sibling-scope graph; the parent completes once they
            # all have (so its own siblings see the decomposed work done).
            yield self.image.run_children(task)
        self._c_tasks.value += 1
        self.rt.metrics.observe("tasks.smp.duration", self.env.now - start)
        self.image.finish_task(task, self, start)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SMPWorker n{self.node_index}.w{self.worker_index}>"
