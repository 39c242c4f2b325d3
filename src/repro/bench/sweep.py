"""Parallel figure sweeps: fan independent figure points out across cores.

A figure (see :mod:`repro.bench.figures`) is a grid of *points* — one
(app, version, machine, configuration) simulation each, sharing nothing
with its neighbours.  The sweep runner exploits that: each point is a
picklable :class:`PointSpec`, executed by the module-level :func:`run_point`
either in-process (serial, the default) or in a forked process of its own.

Isolation and determinism
-------------------------
With ``parallel=N`` every point runs in its own process, **forked from
the pre-sweep process** (the parent runs no point itself) and supervised
directly by :func:`run_points` through
:class:`repro.service.isolation.IsolatedCall` — the supervisor behind
the service's :class:`~repro.service.backends.PoolBackend`, with no
worker pool and no thread in between; at most N are alive at a time.
So module-level counters (stream ids, cache use clocks) are identical
for every point and one point can never observe another's state.  A
simulation is itself deterministic given its spec, so a sweep's output is
bit-identical whatever ``parallel`` is — ``tests/bench/test_sweep.py``
pins serial vs parallel equality.  (Forked children never re-import
``__main__``, unlike spawned ones, so the runner is safe to call from
scripts, pytest, and the REPL alike.)

Crash surfacing
---------------
A point that raises, or a point process that *dies* (segfault,
``os._exit``, OOM-kill — pipe EOF plus its wait status), surfaces as
:class:`SweepPointError` naming the point instead of hanging the sweep:
the first failing point in spec order is raised, after every point still
running has been killed and reaped.

Usage::

    python -m repro.bench fig5 --parallel 4      # CLI
    results = run_points(points, parallel=4)     # library
"""

from __future__ import annotations

import select
import traceback
from dataclasses import dataclass, field
from typing import Optional

from ..runtime.config import RuntimeConfig
from ..service.isolation import IsolatedCall
from .harness import run_app

__all__ = ["PointSpec", "SweepPointError", "run_point", "run_points"]


@dataclass(frozen=True)
class PointSpec:
    """One figure point: everything a worker needs to reproduce the run.

    Specs carry only picklable values (strings, numbers, frozen size
    dataclasses, a :class:`RuntimeConfig`) — never live machines, programs
    or environments, which is what keeps a point process-portable.
    """

    figure: str                       #: owning figure, e.g. ``"fig5"``
    series: str                       #: series label within the figure
    x: "int | float"                  #: x-axis value (GPUs or nodes)
    app: str                          #: matmul | stream | perlin | nbody
    version: str = "ompss"            #: ompss | mpi_cuda
    machine: str = "multi_gpu"        #: multi_gpu | cluster
    count: int = 1                    #: GPU count or node count
    size: object = None               #: the app's frozen Size dataclass
    config: Optional[RuntimeConfig] = None   #: OmpSs runtime configuration
    run_kwargs: dict = field(default_factory=dict)  #: init=, flush=, ...
    want_metrics: bool = False        #: return the full counter snapshot
    #: scheduling-policy override (``--scheduler`` CLI flag): replaces the
    #: config's scheduler for OmpSs runs, leaving the rest of the point's
    #: configuration untouched.  ``None`` means "as configured".
    scheduler: Optional[str] = None

    @property
    def label(self) -> str:
        return f"{self.figure}/{self.series}@{self.x}"


class SweepPointError(RuntimeError):
    """A sweep point failed; ``spec`` identifies which one."""

    def __init__(self, spec: PointSpec, detail: str):
        super().__init__(f"sweep point {spec.label} failed: {detail}")
        self.spec = spec
        self.detail = detail


def run_point(spec: PointSpec) -> dict:
    """Execute one figure point; returns a small, picklable result dict.

    Depends only on the spec (machines and programs are built fresh), so a
    forked child computes the same answer as an in-process call.
    """
    config = spec.config
    if spec.scheduler is not None:
        config = (config or RuntimeConfig()).with_(scheduler=spec.scheduler)
    res = run_app(spec.app, spec.version, spec.machine, spec.count,
                  spec.size, config, spec.run_kwargs)
    return {
        "metric": res.metric,
        "makespan": res.makespan,
        "metrics": res.metrics if spec.want_metrics else None,
    }


def run_points(specs: "list[PointSpec]", parallel: int = 0) -> "list[dict]":
    """Run every spec; results come back in spec order.

    ``parallel <= 1`` runs in-process.  Otherwise every point gets its own
    forked process, at most ``parallel`` alive at a time (module docstring);
    ``run_point`` is resolved at each fork, so tests can monkeypatch it.
    """
    if parallel <= 1:
        out = []
        for spec in specs:
            try:
                out.append(run_point(spec))
            except Exception:
                raise SweepPointError(spec, f"\n{traceback.format_exc()}")
        return out

    handles: "list[IsolatedCall]" = []        # handles[i] runs specs[i]
    out = []
    try:
        for i, spec in enumerate(specs):
            # Until point i is in: drain whoever has written, start points
            # (in spec order) up to the limit, sleep on the running pipes.
            while True:
                running = [h for h in handles if not h.poll()]
                while len(handles) < len(specs) and len(running) < parallel:
                    handles.append(
                        IsolatedCall(run_point, specs[len(handles)]))
                    running.append(handles[-1])
                if handles[i] not in running:
                    break
                select.select(running, [], [])
            kind, value = handles[i].outcome()
            if kind == "err":
                raise SweepPointError(spec, f"\n{value}")
            out.append(value)
        return out
    finally:
        for handle in handles:
            handle.kill()                     # a no-op for a finished point
