"""Shared infrastructure for the four evaluation applications.

Every application comes in four versions, mirroring the paper's productivity
and performance comparison:

* ``serial``   — plain NumPy reference (the starting point programmers have);
* ``cuda``     — single-GPU with explicit allocation/memcpy/launch;
* ``mpi_cuda`` — one MPI rank per cluster node driving its GPU explicitly;
* ``ompss``    — the annotated task version; the same code runs on the
  multi-GPU node and on the cluster.

Each version's entry point returns an :class:`AppResult` with the simulated
makespan and the app's headline metric (GFLOP/s, GB/s or Mpixels/s).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cuda.api import CudaContext
from ..hardware.cluster import Machine

__all__ = ["AppResult", "make_contexts"]


@dataclass
class AppResult:
    """Outcome of one application run."""

    name: str
    version: str
    makespan: float            # simulated seconds
    metric: float              # app-specific headline number
    metric_unit: str
    stats: dict = field(default_factory=dict)
    #: full counter-registry snapshot of the run (OmpSs versions only;
    #: see docs/OBSERVABILITY.md) — the substrate for per-run metrics
    #: tables in benchmark output.
    metrics: dict = field(default_factory=dict)
    #: functional-mode output(s) for correctness checks (None in perf mode).
    output: Optional[dict] = None

    def __repr__(self) -> str:
        return (f"<AppResult {self.name}/{self.version} "
                f"{self.metric:.2f} {self.metric_unit} "
                f"({self.makespan * 1e3:.2f} ms)>")


def make_contexts(machine: Machine, jitter: float = 0.03
                  ) -> list[CudaContext]:
    """One CUDA context per GPU of the machine (baseline versions).

    For the multi-GPU node this is N contexts on one node; for the cluster it
    is one context per node (each cluster node has a single GTX 480).
    """
    contexts = []
    for node in machine.nodes:
        for gpu in node.gpus:
            contexts.append(CudaContext(machine.env, gpu, node,
                                        jitter=jitter))
    return contexts
