"""GPU manager threads (paper Section III.D.2).

On startup the runtime creates one manager thread per GPU.  The manager
transfers data from and to its GPU, launches kernels, synchronizes their
execution, and implements the two GPU-level optimizations the paper
evaluates:

* **overlap of transfers and computation** — DMA through a pinned staging
  buffer on a separate CUDA stream (requires the extra host-side copy, so it
  is off by default, matching the paper);
* **data prefetch** — once a kernel is launched, the manager immediately
  requests the next task from the scheduler and starts its input transfers,
  so they complete while the kernel runs.  Without overlap those transfers
  serialize behind the kernel on the null stream, which is precisely why the
  paper notes prefetch "is more effective when combined with the
  overlapping".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..cuda.api import CudaContext
from ..faults.errors import TaskRetryExceeded
from ..sim import Event, Process, Timeout
from .task import Task, TaskState
from .worker import resolve_args

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Image

__all__ = ["GPUManager"]


class GPUManager:
    """One GPU's manager thread, also its scheduler-visible worker."""

    kind = "gpu"

    def __init__(self, image: "Image", gpu, space, cache):
        self.image = image
        self.rt = image.rt
        self.env = image.rt.env
        self.node = image.node
        self.node_index = image.node.index
        self.gpu = gpu
        self.space = space
        self.cache = cache
        self.ctx = CudaContext(self.env, gpu, image.node,
                               jitter=self.rt.config.kernel_jitter)
        self.copy_stream = self.ctx.create_stream()
        #: cleared by :meth:`lose`; the manager loop then abandons (and
        #: requeues) its work and exits.
        self.alive = True
        self.current_task: Optional[Task] = None
        #: the bound ``kernel_should_abort`` interceptors (the fault engine's)
        self._aborts = self.rt.probes.kernel_should_abort
        #: scheduler-visible place label, also the prefix of every metric
        #: this manager records — all interned once here instead of being
        #: f-string-built per DMA leg / kernel / task.
        self.place_name = f"gpu:{self.node_index}:{self.gpu.index}"
        prefix = f"gpu.{self.place_name}"
        metrics = self.rt.metrics
        self._c_dma = {
            d: (metrics.counter(f"{prefix}.dma.{d}.copies"),
                metrics.counter(f"{prefix}.dma.{d}.bytes"))
            for d in ("h2d", "d2h")
        }
        self._c_kernels = metrics.counter(f"{prefix}.kernels")
        self._c_tasks = metrics.counter(f"{prefix}.tasks")
        self._c_prefetch_hits = metrics.counter(f"{prefix}.prefetch.hits")
        self._c_prefetch_staged = metrics.counter(
            f"{prefix}.prefetch.staged")
        #: ``tasks.cuda.duration``, bound at the first finished task (a
        #: run without one has no such histogram).
        self._h_duration = None

    def lose(self) -> None:
        """Fault recovery: the GPU is gone (a gpu_loss event)."""
        self.alive = False
        self.image.scheduler.forget_takers()    # accepts() changed

    def accepts(self, task: Task) -> bool:
        return task.device == "cuda" and self.alive

    # ------------------------------------------------------------------
    def dma(self, nbytes: int, direction: str):
        """Process generator: one host<->device transfer, honoring the
        overlap configuration (used by the coherence engine)."""
        c_copies, c_bytes = self._c_dma[direction]
        c_copies.value += 1
        c_bytes.value += nbytes
        if not self.rt.config.overlap:
            # Pageable copy on the null stream: serializes with kernels.
            yield self.ctx.memcpy(nbytes, direction, pinned=False)
            return
        # Staged pinned copy on a dedicated stream: can overlap compute,
        # at the price of a pinned-buffer lease and a host memcpy.
        lease = yield self.ctx.malloc_host(nbytes)
        try:
            if direction == "h2d":
                yield self.ctx.staging_copy(nbytes)
                yield self.ctx.memcpy(nbytes, direction, pinned=True,
                                      stream=self.copy_stream)
            else:
                yield self.ctx.memcpy(nbytes, direction, pinned=True,
                                      stream=self.copy_stream)
                yield self.ctx.staging_copy(nbytes)
        finally:
            lease.release()

    # ------------------------------------------------------------------
    def run(self):
        """The manager loop (a simulated process)."""
        rt = self.rt
        env = self.env
        staged_next: Optional[Task] = None
        while rt.running:
            if not self.alive:
                self._abandon(None, staged_next)
                return
            task = staged_next
            staged_next = None
            # A staged task's prefetch finished before the loop got here.
            prefetched = task is not None
            if task is None:
                task = self.image.scheduler.next_task(self)
            if task is None:
                yield self.image.wait_for_work("cuda")
                continue
            self.current_task = task
            task.state = TaskState.RUNNING
            task.assigned_to = self
            start = env._now
            for fn in rt.probes.task_started:
                fn(task, self)
            if rt.config.task_overhead:
                yield Timeout(env, rt.config.task_overhead)
            if not self.alive:
                self._abandon(task, None)
                return
            if prefetched:
                # Inputs already on the device: the prefetch paid off.
                self._c_prefetch_hits.value += 1
            else:
                yield from rt.coherence.stage_in(task, self)
            if not self.alive:
                self._abandon(task, None)
                return
            # Abort-before-side-effects: while a kernel can be aborted, an
            # aborted or lost kernel must never mutate device buffers.
            aborted = False
            for should_abort in self._aborts:
                aborted = should_abort(self, task) or aborted
            kernel_done = self._launch(task)
            self._c_kernels.value += 1

            prefetch_proc = None
            if rt.config.prefetch:
                candidate = self.image.scheduler.next_task(self)
                if candidate is not None:
                    # Stage the next task's inputs while the kernel runs.
                    candidate.assigned_to = self
                    prefetch_proc = Process(
                        env, rt.coherence.stage_in(candidate, self))
                    staged_next = candidate
                    self._c_prefetch_staged.value += 1

            kernel_enqueued = env._now
            yield kernel_done
            for fn in rt.probes.kernel_done:
                fn(task, self, kernel_enqueued, env._now)
            if prefetch_proc is not None:
                yield prefetch_proc
            if not self.alive:
                self._abandon(task, staged_next)
                return
            if aborted:
                self._requeue(task, "kernel_abort")
                self.current_task = None
                continue
            if self._aborts:
                self._run_body(task)
            published = yield from rt.coherence.commit_outputs(task, self)
            if not published:
                # Torn commit (device died mid-commit without output
                # protection): nothing was published, re-execute.
                self._requeue(task, "torn_commit")
                self.current_task = None
                if not self.alive:
                    self._abandon(None, staged_next)
                    return
                continue
            if task.nest is not None and task.nest.owner is task:
                yield self.image.run_children(task)
            self._c_tasks.value += 1
            duration = self._h_duration
            if duration is None:
                duration = self._h_duration = rt.metrics.histogram(
                    "tasks.cuda.duration")
            duration.observe(env._now - start)
            self.current_task = None
            self.image.finish_task(task, self, start)

    def _launch(self, task: Task) -> Event:
        """Enqueue the task's kernel; returns the completion event.

        While a kernel can be aborted the functional body is *not*
        attached to the kernel completion — the caller runs it via
        :meth:`_run_body` only after the launch survives."""
        kernel = task.codelet.kernel
        func_args: tuple = ()
        if (not self._aborts and self.rt.config.functional
                and kernel.func is not None):
            func_args = tuple(resolve_args(task, self.space,
                                           self.rt.probes.watch_args))
        return self.ctx.launch(kernel, func_args=func_args,
                               **task.cost_kwargs)

    def _run_body(self, task: Task) -> None:
        """The deferred functional body: mirrors exactly what the stream
        op would have run at kernel completion."""
        func = task.codelet.kernel.func
        if self.rt.config.functional and func is not None:
            func_args = tuple(resolve_args(task, self.space,
                                           self.rt.probes.watch_args))
            if func_args:
                func(*func_args)

    # ------------------------------------------------------------------
    # Fault recovery (never reached without a fault engine)
    # ------------------------------------------------------------------
    def _abandon(self, task: Optional[Task],
                 staged: Optional[Task]) -> None:
        """The device died: requeue whatever this loop was holding."""
        for t in (task, staged):
            if t is not None:
                self._requeue(t, "device_lost")
        self.current_task = None

    def _requeue(self, task: Task, why: str) -> None:
        """Return a failed (not committed) task to a scheduler.

        The task's inputs are still coherent — commit never ran, so the
        directory was never updated — which is what makes plain
        re-execution from the dependency graph's recorded inputs safe."""
        rt = self.rt
        if self.cache is not None:
            for acc in task.copy_accesses:
                ent = self.cache.entry_or_none(acc.region)
                if ent is not None and ent.pin_count > 0:
                    self.cache.unpin(acc.region)
        task.state = TaskState.READY
        task.assigned_to = None
        retries = rt.faults.retries
        tries = retries[task.tid] = retries.get(task.tid, 0) + 1
        if tries > rt.faults.plan.max_task_retries:
            raise TaskRetryExceeded(
                f"task {task.name!r} failed {tries} times "
                f"(last: {why} on {self.place_name}); giving up")
        rt.metrics.inc("faults.tasks_reexecuted")
        rt.faults.note("task_reexecuted",
                       f"{task.name}:{why}@{self.place_name}")
        rt.faults.resubmit(self.image, task)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<GPUManager n{self.node_index}.g{self.gpu.index}>"
