"""Parallel figure sweeps: fan independent figure points out across cores.

A figure (:mod:`repro.bench.figures`) is a grid of independent points,
each a :class:`PointSpec`: a service :class:`~repro.service.job.JobRequest`
plus its place in the figure, run by the service's own executor.
:func:`run_points` is a client of one
:class:`~repro.service.backends.Backend`: ``parallel=0`` runs points
in-process, ``parallel=N`` forks each from the pre-sweep process, at most
N alive at a time, bit-identically.  A point that raises, or whose
process dies, surfaces as :class:`SweepPointError` naming it: the first
failing point in spec order, after every point still running has been
killed and reaped.
"""

from __future__ import annotations

import dataclasses
import select

from ..service.backends import Backend
from ..service.job import JobRequest
from ..service.runner import execute_request

__all__ = ["PointSpec", "SweepPointError", "run_point", "run_points"]


@dataclasses.dataclass(frozen=True, kw_only=True)
class PointSpec(JobRequest):
    """One figure point: a run (the :class:`JobRequest` fields; ``size``
    may be given as the app's Size dataclass) and its place in a figure."""

    figure: str                       #: owning figure, e.g. ``"fig5"``
    series: str                       #: series label within the figure
    x: "int | float | str"            #: x-axis value (GPUs, nodes, point)
    want_metrics: bool = False        #: the figure reports its counters
    collect_trace: bool = False       #: figures read no trace

    def __post_init__(self):
        if dataclasses.is_dataclass(self.size):
            object.__setattr__(self, "size", dataclasses.asdict(self.size))
        super().__post_init__()

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
    """Execute one figure point: :func:`execute_request`'s payload."""
    return execute_request(spec)


def run_points(specs: "list[PointSpec]", parallel: int = 0) -> "list[dict]":
    """Run every spec on ``Backend(parallel)``; results in spec order."""
    backend = Backend(parallel)
    outcomes: "dict[int, tuple[str, object]]" = {}
    started = 0
    out = []
    try:
        for i, spec in enumerate(specs):
            while i not in outcomes:
                while started < len(specs) and backend.free_slots():
                    backend.start(str(started), specs[started])
                    started += 1
                for job in backend.active():
                    outcome = backend.poll(job)
                    if outcome is not None:
                        outcomes[int(job)] = outcome
                if i not in outcomes:
                    select.select(backend.fds(), [], [])
            kind, value = outcomes.pop(i)
            if kind == "err":
                raise SweepPointError(spec, f"\n{value}")
            out.append(value)
        return out
    finally:
        backend.close()
