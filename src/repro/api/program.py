"""The OmpSs program context: machine + runtime + data + synchronization.

A :class:`Program` is what the paper's compiled binary plus runtime startup
amounts to: it owns the simulated machine and a configured runtime, hands out
data handles, and runs a *main* generator (the annotated serial program).
The same main runs unmodified on a multi-GPU node or a GPU cluster — the
paper's headline property — because device selection, data movement and
scheduling all live below this interface.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..hardware.cluster import Machine, build_multi_gpu_node
from ..runtime.config import RuntimeConfig
from ..runtime.runtime import Runtime
from ..runtime.task import Task
from ..sim import Environment
from .data import DataHandle, DataView

__all__ = ["Program"]


class Program:
    """One OmpSs application execution."""

    def __init__(self, machine: Optional[Machine] = None,
                 config: Optional[RuntimeConfig] = None,
                 env: Optional[Environment] = None,
                 tracer=None, sanitizer=None):
        if machine is None:
            env = env or Environment()
            machine = build_multi_gpu_node(env, num_gpus=1)
        self.env = machine.env
        self.machine = machine
        self.config = config or RuntimeConfig()
        self.rt = Runtime(machine, self.config, tracer=tracer,
                          sanitizer=sanitizer)
        self._makespan: Optional[float] = None

    # -- data ----------------------------------------------------------------
    def array(self, name: str, num_elements: int, dtype=np.float32,
              init: Optional[np.ndarray] = None) -> DataHandle:
        """Register a shared array with the runtime (the memory model's
        'explicitly marked shared data')."""
        obj = self.rt.register_array(name, num_elements, dtype=dtype,
                                     initial=init)
        return DataHandle(self, obj)

    # -- task submission (used by the decorators) ------------------------------
    def submit(self, task: Task) -> Task:
        return self.rt.submit(task)

    # -- synchronization constructs ---------------------------------------------
    def taskwait(self, noflush: bool = False):
        """``#pragma omp taskwait [noflush]`` — a process generator."""
        yield from self.rt.taskwait(noflush=noflush)

    def taskwait_on(self, *views: DataView, noflush: bool = False):
        """``#pragma omp taskwait on(...)`` — wait for named producers."""
        regions = [v.region for v in views]
        yield from self.rt.taskwait_on(regions, noflush=noflush)

    # -- execution ------------------------------------------------------------
    def run(self, main) -> float:
        """Run a main generator to completion; returns the simulated
        makespan in seconds (also available as :attr:`makespan`)."""
        self._makespan = self.rt.run_main(main)
        return self._makespan

    @property
    def makespan(self) -> float:
        if self._makespan is None:
            raise RuntimeError("run() has not completed yet")
        return self._makespan

    # -- metrics --------------------------------------------------------------
    @property
    def metrics(self):
        """The runtime's :class:`~repro.metrics.CounterRegistry` — every
        subsystem's counters (``metrics.snapshot()`` / ``metrics.to_json()``
        for export, see docs/OBSERVABILITY.md)."""
        return self.rt.metrics

    @property
    def stats(self) -> dict:
        """Execution counters for the benchmark reports: eight totals read
        from :attr:`metrics` (the registry is the one place they live)."""
        rt = self.rt
        value = rt.metrics.value
        return {
            "tasks": value("runtime.tasks_finished"),
            "transfers": value("coherence.transfers"),
            "bytes_transferred": value("coherence.bytes_transferred"),
            "dedup_hits": value("coherence.dedup_hits"),
            "cache_hits": sum(value(f"cache.{c.space.name}.hits")
                              for c in rt.all_caches()),
            "cache_misses": sum(value(f"cache.{c.space.name}.misses")
                                for c in rt.all_caches()),
            "cache_evictions": sum(value(f"cache.{c.space.name}.evictions")
                                   for c in rt.all_caches()),
            "network_bytes": value("am.bytes_sent"),
        }
