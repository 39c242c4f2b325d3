"""Regeneration of every figure in the paper's evaluation (Figs. 5-13).

:data:`FIGURES` is the evaluation as one table: a :class:`Figure` row per
chart, keyed by its name on the command line (``python -m repro.bench
fig5``).  A row holds the chart's labels and the function that declares
its grid of independent :class:`~.sweep.PointSpec` points.
:func:`run_figure` runs a row's points at the paper's problem sizes in
performance mode and returns a :class:`FigureResult` whose series mirror
the published chart's bars/lines.  Absolute values are simulated-hardware
numbers; the *shapes* are what EXPERIMENTS.md validates against the paper.

Because a figure is a list of independent points,
``run_figure(name, parallel=K)`` — and ``python -m repro.bench --parallel
K`` — fans a sweep out across processes with bit-identical results (see
:mod:`repro.bench.sweep`).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from ..apps import matmul, nbody, perlin, stream
from ..runtime import config as runtime_config
from ..runtime.config import RuntimeConfig
from .harness import CLUSTER_BEST, FigureResult
from .sweep import PointSpec, run_points

__all__ = ["Figure", "FIGURES", "figure_points", "run_figure",
           "MULTI_GPU_COUNTS", "CLUSTER_NODE_COUNTS", "SCHED_POLICIES",
           "IRR_POINTS"]

MULTI_GPU_COUNTS = (1, 2, 4)
CLUSTER_NODE_COUNTS = (1, 2, 4, 8)

CACHE_POLICIES = ("nocache", "wt", "wb")
SCHEDULERS = ("bf", "default", "affinity")

#: The N-Body size used for the Fig. 8 sweep: the paper observes that
#: "the N-Body uses a lot of GPU memory which is also transferred between
#: all the devices" — at 20000 bodies alone the footprint is trivial in our
#: model, so the memory-pressure run scales the body count (and allocates a
#: fresh position buffer per iteration, like the memory-hungry original)
#: until per-GPU footprints stress the 2.62 GB Tesla memory (DESIGN.md
#: section 2, substitution).
NBODY_STRESS = nbody.NBodySize(n=20_000_000, blocks=16, iters=10)

#: every policy ``make_scheduler`` knows, paper tier first.
SCHED_POLICIES = runtime_config.SCHEDULERS

#: the irregular apps (Jacobi halo exchange, sparse reduction) on a 4-GPU
#: node and on 4 cluster nodes.
IRR_POINTS = ("jacobi-mgpu", "jacobi-cluster",
              "spreduce-mgpu", "spreduce-cluster")


@dataclasses.dataclass(frozen=True)
class Figure:
    """One chart of the evaluation: its labels and its point grid."""

    figure: str                       #: chart name, e.g. ``"Figure 5"``
    title: str
    x_label: str
    xs: tuple
    unit: str
    #: ``points(name, **point_args)`` -> the grid, every point labelled
    #: ``figure=name``, grouped by series, each series in ``xs`` order.
    points: Callable[..., "list[PointSpec]"]
    #: the payload field a series plots: ``"metric"`` (the app's
    #: throughput) or ``"makespan"``.
    value: str = "metric"
    #: attach counter snapshots under ``series/x`` instead of ``series``.
    per_point: bool = False
    #: the series are the scheduling policies, so a ``scheduler``
    #: override does not apply.
    sweeps_policies: bool = False
    #: ``notes(result)`` -> the lines printed under the chart.
    notes: Optional[Callable[[FigureResult], "list[str]"]] = None


def _sized(size, count: int):
    """``size`` is an app Size, or a function of the GPU / node count."""
    return size(count) if callable(size) else size


# ---------------------------------------------------------------------------
# Multi-GPU environment (Figs. 5-8)
# ---------------------------------------------------------------------------

def _cache_by_scheduler(figure: str, app: str, size) -> "list[PointSpec]":
    """The Fig. 5/6 grid: cache policy x scheduler x GPU count.

    Mechanism counters of the largest run explain each series' shape
    (cache hits per policy, bytes migrated per scheduler), so only that
    point requests its snapshot.
    """
    return [PointSpec(figure=figure, series=f"{policy}-{sched}", x=g,
                      app=app, machine="multi_gpu", count=g,
                      size=_sized(size, g),
                      config=RuntimeConfig(functional=False,
                                           cache_policy=policy,
                                           scheduler=sched),
                      want_metrics=(g == MULTI_GPU_COUNTS[-1]))
            for policy in CACHE_POLICIES for sched in SCHEDULERS
            for g in MULTI_GPU_COUNTS]


def _perlin_flush(figure: str) -> "list[PointSpec]":
    """Perlin noise, Flush vs NoFlush x cache policy x GPU count."""
    return [PointSpec(figure=figure, series=f"{variant}-{policy}", x=g,
                      app="perlin", machine="multi_gpu", count=g,
                      size=perlin.PAPER_PERLIN,
                      config=RuntimeConfig(functional=False,
                                           cache_policy=policy),
                      run_kwargs={"flush": flush})
            for variant, flush in (("flush", True), ("noflush", False))
            for policy in CACHE_POLICIES for g in MULTI_GPU_COUNTS]


def _nbody_stress(figure: str) -> "list[PointSpec]":
    """N-Body under GPU memory pressure: the no-cache policy wins
    (delayed write-back + replacement cost)."""
    return [PointSpec(figure=figure, series=policy, x=g, app="nbody",
                      machine="multi_gpu", count=g, size=NBODY_STRESS,
                      config=RuntimeConfig(functional=False,
                                           cache_policy=policy),
                      run_kwargs={"fresh_buffers": True})
            for policy in CACHE_POLICIES for g in (2, 4)]


# ---------------------------------------------------------------------------
# GPU cluster environment (Figs. 9-13)
# ---------------------------------------------------------------------------

def _matmul_cluster(figure: str, presends=(0, 1, 4)) -> "list[PointSpec]":
    """Cluster matmul: StoS/MtoS x init mode x presend window."""
    return [PointSpec(figure=figure,
                      series=f"{'StoS' if stos else 'MtoS'}-{init}-ps{ps}",
                      x=nodes, app="matmul", machine="cluster", count=nodes,
                      size=matmul.PAPER_MATMUL,
                      config=RuntimeConfig(**CLUSTER_BEST,
                                           slave_to_slave=stos,
                                           presend=ps),
                      run_kwargs={"init": init},
                      want_metrics=(nodes == CLUSTER_NODE_COUNTS[-1]))
            for stos in (False, True) for init in ("seq", "smp", "gpu")
            for ps in presends for nodes in CLUSTER_NODE_COUNTS]


def _cluster_series(figure: str, series: str, app: str, size,
                    version: str = "ompss",
                    **run_kwargs) -> "list[PointSpec]":
    """One Figs. 10-13 line over :data:`CLUSTER_NODE_COUNTS`: the best
    OmpSs setup (the paper's best cache/GPU parameters, slave-to-slave,
    presend 4) or, with ``version="mpi_cuda"``, the hand-written
    baseline."""
    config = (RuntimeConfig(**CLUSTER_BEST, slave_to_slave=True, presend=4)
              if version == "ompss" else None)
    return [PointSpec(figure=figure, series=series, x=nodes, app=app,
                      version=version, machine="cluster", count=nodes,
                      size=_sized(size, nodes), config=config,
                      run_kwargs=run_kwargs)
            for nodes in CLUSTER_NODE_COUNTS]


def _nbody_cluster(figure: str, n_bodies: int = 20_000) -> "list[PointSpec]":
    """The paper's own 20000-body system: per-node compute shrinks
    quadratically with the node count while the all-to-all grows, which
    is exactly the regime where the two versions' communication structure
    (synchronous Allgather vs runtime-managed transfers) separates them."""
    def size(nodes: int) -> nbody.NBodySize:
        return nbody.NBodySize(n=n_bodies, blocks=max(nodes, 1), iters=10)

    return (_cluster_series(figure, "ompss", "nbody", size)
            + _cluster_series(figure, "mpi+cuda", "nbody", size,
                              version="mpi_cuda"))


# ---------------------------------------------------------------------------
# Figure IRR: the irregular apps under every policy
# ---------------------------------------------------------------------------

def _irregular(figure: str) -> "list[PointSpec]":
    from ..apps import jacobi, spreduce
    points = []
    for policy in SCHED_POLICIES:
        for point in IRR_POINTS:
            app, machine = point.split("-")
            if machine == "cluster":
                cfg = dict(CLUSTER_BEST, presend=2, scheduler=policy)
            else:
                cfg = dict(functional=False, overlap=True, prefetch=True,
                           scheduler=policy)
            points.append(PointSpec(
                figure=figure, series=policy, x=point, app=app,
                machine="cluster" if machine == "cluster" else "multi_gpu",
                count=4,
                size=(jacobi.PAPER_JACOBI if app == "jacobi"
                      else spreduce.PAPER_SPREDUCE),
                config=RuntimeConfig(**cfg),
                want_metrics=(point == "spreduce-mgpu")))
    return points


def _best_policies(result: FigureResult) -> "list[str]":
    notes = []
    for i, point in enumerate(IRR_POINTS):
        best = min(SCHED_POLICIES, key=lambda p: result.series[p][i])
        notes.append(f"{point}: best policy {best} "
                     f"{result.series[best][i]:.4f}s")
    return notes


#: The evaluation, one row per chart, keyed by its command-line name.
FIGURES: "dict[str, Figure]" = {
    "fig5": Figure(
        "Figure 5", "Matrix multiply, multi-GPU node", "GPUs",
        MULTI_GPU_COUNTS, "GFLOP/s",
        lambda name: _cache_by_scheduler(name, "matmul",
                                         matmul.PAPER_MATMUL)),
    "fig6": Figure(
        "Figure 6", "STREAM, multi-GPU node", "GPUs", MULTI_GPU_COUNTS,
        "GB/s",
        lambda name: _cache_by_scheduler(name, "stream",
                                         stream.paper_stream_size)),
    "fig7": Figure(
        "Figure 7", "Perlin noise, multi-GPU node", "GPUs",
        MULTI_GPU_COUNTS, "Mpixels/s", _perlin_flush),
    "fig8": Figure(
        "Figure 8", "N-Body, multi-GPU node (memory stress)", "GPUs",
        (2, 4), "GFLOP/s", _nbody_stress,
        notes=lambda result: [
            f"body count scaled to {NBODY_STRESS.n} to reach the paper's "
            "GPU memory pressure regime (see DESIGN.md)"]),
    "fig9": Figure(
        "Figure 9", "Matrix multiply, GPU cluster", "nodes",
        CLUSTER_NODE_COUNTS, "GFLOP/s", _matmul_cluster),
    # Figs. 10-13: the best OmpSs setup vs the MPI+CUDA baseline.
    "fig10": Figure(
        "Figure 10", "Matmul: OmpSs vs MPI+CUDA", "nodes",
        CLUSTER_NODE_COUNTS, "GFLOP/s",
        lambda name: (
            _cluster_series(name, "ompss-best", "matmul",
                            matmul.PAPER_MATMUL, init="smp")
            + _cluster_series(name, "mpi+cuda", "matmul",
                              matmul.PAPER_MATMUL, version="mpi_cuda"))),
    "fig11": Figure(
        "Figure 11", "STREAM, GPU cluster", "nodes", CLUSTER_NODE_COUNTS,
        "GB/s",
        lambda name: (
            _cluster_series(name, "ompss", "stream",
                            stream.paper_stream_size)
            + _cluster_series(name, "mpi+cuda", "stream",
                              stream.paper_stream_size,
                              version="mpi_cuda"))),
    "fig12": Figure(
        "Figure 12", "Perlin noise, GPU cluster", "nodes",
        CLUSTER_NODE_COUNTS, "Mpixels/s",
        lambda name: (
            _cluster_series(name, "ompss-flush", "perlin",
                            perlin.PAPER_PERLIN, flush=True)
            + _cluster_series(name, "ompss-noflush", "perlin",
                              perlin.PAPER_PERLIN, flush=False)
            + _cluster_series(name, "mpi+cuda", "perlin",
                              perlin.PAPER_PERLIN, version="mpi_cuda",
                              flush=True))),
    "fig13": Figure(
        "Figure 13", "N-Body, GPU cluster", "nodes", CLUSTER_NODE_COUNTS,
        "GFLOP/s", _nbody_cluster),
    # Series are makespans (lower is better), one per scheduling policy.
    "fig-irr": Figure(
        "Figure IRR", "Irregular apps, all scheduling policies", "point",
        IRR_POINTS, "s (makespan)", _irregular, value="makespan",
        per_point=True, sweeps_policies=True, notes=_best_policies),
}


def figure_points(name: str, **point_args) -> "list[PointSpec]":
    """Figure ``name``'s point grid; ``point_args`` reach its points
    function (``presends=`` for ``fig9``, ``n_bodies=`` for ``fig13``)."""
    return FIGURES[name].points(name, **point_args)


def run_figure(name: str, parallel: int = 0,
               scheduler: "str | None" = None,
               **point_args) -> FigureResult:
    """Run figure ``name``'s points (in-process, or fanned out over
    ``parallel`` processes) and fill its series.

    Points arrive grouped by series, each series in x order, so appending
    each point's value in spec order rebuilds the series lists.  Points
    flagged ``want_metrics`` attach their counter snapshot under the
    series name, or under ``series/x`` for a ``per_point`` figure.

    ``scheduler`` (the ``--scheduler`` CLI flag) overrides the policy on
    every point of the figure, leaving the rest of each point's
    configuration untouched; a figure that sweeps the policies ignores it.
    """
    row = FIGURES[name]
    points = figure_points(name, **point_args)
    override = scheduler is not None and not row.sweeps_policies
    if override:
        points = [dataclasses.replace(spec, scheduler=scheduler)
                  for spec in points]
    result = FigureResult(figure=row.figure, title=row.title,
                          x_label=row.x_label, xs=list(row.xs),
                          unit=row.unit)
    for spec, val in zip(points, run_points(points, parallel=parallel)):
        result.series.setdefault(spec.series, []).append(val[row.value])
        if spec.want_metrics:
            result.attach_metrics(
                f"{spec.series}/{spec.x}" if row.per_point else spec.series,
                val["metrics"])
    if row.notes:
        result.notes += row.notes(result)
    if override:
        result.notes.append(f"scheduler override: {scheduler}")
    return result
