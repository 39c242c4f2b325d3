"""Bottom-level estimates: what the ``cp`` policy orders its queues by.

The *bottom level* of a task is the length, in modelled seconds, of the
longest cost-weighted path from the task to a sink of the dependence
graph.  Dispatching the highest bottom level first lets tasks on the
critical path jump every queue, which is exactly what FIFO policies get
wrong on fan-in graphs (tiled Cholesky: the next panel factorisation sits
behind a full wavefront of trailing-matrix updates it does not depend on).

Costs come from the models the tasks already carry — ``KernelSpec.cost``
for CUDA tasks, ``smp_cost`` for host tasks — evaluated against the specs
of the registered workers' hardware, with an EMA of *observed* per-kind
durations (folded from the ``tasks.{smp,cuda}.duration`` histograms in
:mod:`repro.metrics`) as the fallback for tasks with no usable model.

Bottom levels are computed over the successors known when a task becomes
ready.  Dependences are discovered at submission in this runtime, so a
very-early-ready task may not yet see its full subtree; that truncation
only ever *under*-prioritises the earliest wavefront, where queues are
shallow and ordering hardly matters.
"""

from __future__ import annotations

from typing import Optional

from ...metrics import CounterRegistry
from ..task import Task

__all__ = ["BottomLevelEstimator"]

#: nominal task cost (seconds) when neither a model nor an observation
#: exists yet — only the relative ordering matters, and with uniform costs
#: bottom level degrades gracefully to graph depth.
NOMINAL_COST = 1e-4

#: EMA smoothing factor for observed per-kind durations.
EMA_ALPHA = 0.25


class BottomLevelEstimator:
    """Cost models + observed-duration EMA -> memoized bottom levels."""

    def __init__(self, metrics=None):
        if metrics is None:
            metrics = CounterRegistry()
        #: the registry whose ``tasks.<kind>.duration`` histograms feed the
        #: EMA (``metrics=None``: a private one nothing observes into).
        self.metrics = metrics
        self.gpu_spec = None
        self.cpu_spec = None
        self._memo: dict[int, float] = {}
        self._ema: dict[str, Optional[float]] = {"smp": None, "cuda": None}
        self._folded: dict[str, tuple[int, float]] = {"smp": (0, 0.0),
                                                      "cuda": (0, 0.0)}

    def note_worker(self, worker) -> None:
        """Learn hardware specs from a registering worker (duck-typed: test
        fakes carry neither attribute and fall back to the EMA path)."""
        if self.gpu_spec is None:
            gpu = getattr(worker, "gpu", None)
            if gpu is not None:
                self.gpu_spec = getattr(gpu, "spec", None)
        if self.cpu_spec is None:
            node = getattr(worker, "node", None)
            if node is not None:
                spec = getattr(node, "spec", None)
                if spec is not None:
                    self.cpu_spec = getattr(spec, "cpu", None)

    def refresh(self) -> None:
        """Fold new ``tasks.<kind>.duration`` observations into the EMA."""
        for kind in ("smp", "cuda"):
            hist = self.metrics.histogram(f"tasks.{kind}.duration")
            seen_count, seen_total = self._folded[kind]
            if hist.count <= seen_count:
                continue
            batch = (hist.total - seen_total) / (hist.count - seen_count)
            self._folded[kind] = (hist.count, hist.total)
            ema = self._ema[kind]
            self._ema[kind] = batch if ema is None else (
                ema + EMA_ALPHA * (batch - ema))

    def cost(self, task: Task) -> float:
        if task.device == "cuda":
            kernel = task.codelet.kernel
            if kernel is not None and self.gpu_spec is not None:
                try:
                    return kernel.duration(self.gpu_spec,
                                           **task.cost_kwargs)
                except Exception:
                    pass
            ema = self._ema["cuda"]
        else:
            if self.cpu_spec is not None:
                try:
                    return task.smp_duration(self.cpu_spec)
                except Exception:
                    pass
            ema = self._ema["smp"]
        return ema if ema is not None else NOMINAL_COST

    def bottom_level(self, task: Task) -> float:
        """cost(task) + max over successors of their bottom level, memoized
        by tid; iterative so deep chains (long stream pipelines) don't hit
        the recursion limit."""
        memo = self._memo
        cached = memo.get(task.tid)
        if cached is not None:
            return cached
        # Two-phase postorder: a node is folded only after every successor
        # has been memoized (first pop schedules the children, second pop
        # folds — the graph is a DAG, so this terminates).
        stack = [(task, False)]
        while stack:
            node, ready = stack.pop()
            if node.tid in memo:
                continue
            if ready:
                memo[node.tid] = self.cost(node) + max(
                    (memo[s.tid] for s in node.successors), default=0.0)
                continue
            stack.append((node, True))
            for succ in node.successors:
                if succ.tid not in memo:
                    stack.append((succ, False))
        return memo[task.tid]
