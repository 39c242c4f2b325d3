"""Regeneration of every figure in the paper's evaluation (Figs. 5-13).

Each ``figN()`` runs the corresponding sweep at the paper's problem sizes in
performance mode and returns a :class:`FigureResult` whose series mirror the
published chart's bars/lines.  Absolute values are simulated-hardware
numbers; the *shapes* are what EXPERIMENTS.md validates against the paper.

Every figure is declared as a grid of independent :class:`~.sweep.PointSpec`
points (``figN_points()``), which is what lets ``figN(parallel=K)`` — and
``python -m repro.bench --parallel K`` — fan a sweep out across processes
with bit-identical results (see :mod:`repro.bench.sweep`).
"""

from __future__ import annotations

import dataclasses

from ..apps import matmul, nbody, perlin, stream
from ..runtime import config as runtime_config
from ..runtime.config import RuntimeConfig
from .harness import CLUSTER_BEST, FigureResult
from .sweep import PointSpec, run_points

__all__ = ["fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
           "fig12", "fig13", "fig_datamove", "fig_irr",
           "MULTI_GPU_COUNTS", "CLUSTER_NODE_COUNTS", "DATAMOVE_FLAGS",
           "DATAMOVE_POINTS", "SCHED_POLICIES", "IRR_POINTS"]

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


def _assemble(result: FigureResult,
              points: "list[PointSpec]", parallel: int,
              scheduler: "str | None" = None, value: str = "metric",
              per_point: bool = False) -> FigureResult:
    """Run a figure's points (serial or fanned out) and fill its series.

    Points arrive grouped by series, each series in x order, so appending
    each point's ``value`` (``"metric"`` or ``"makespan"``) in spec order
    rebuilds the series lists.  Points flagged ``want_metrics`` attach
    their counter snapshot under the series name, or under
    ``series/x`` when ``per_point``.

    ``scheduler`` (the ``--scheduler`` CLI flag) overrides the policy on
    every OmpSs point of the figure, leaving the rest of each point's
    configuration untouched.
    """
    if scheduler is not None:
        result.notes.append(f"scheduler override: {scheduler}")
        points = [dataclasses.replace(spec, scheduler=scheduler)
                  for spec in points]
    values = run_points(points, parallel=parallel)
    for spec, val in zip(points, values):
        result.series.setdefault(spec.series, []).append(val[value])
        if spec.want_metrics:
            result.attach_metrics(
                f"{spec.series}/{spec.x}" if per_point else spec.series,
                val["metrics"])
    return result


# ---------------------------------------------------------------------------
# Multi-GPU environment (Figs. 5-8)
# ---------------------------------------------------------------------------

def _multi_gpu_points(figure: str, app: str, sizes: dict,
                      gpu_counts=MULTI_GPU_COUNTS) -> "list[PointSpec]":
    """The Fig. 5/6 grid: cache policy x scheduler x GPU count.

    Mechanism counters of the largest run explain each series' shape
    (cache hits per policy, bytes migrated per scheduler), so only that
    point requests its snapshot.
    """
    points = []
    for policy in CACHE_POLICIES:
        for sched in SCHEDULERS:
            label = f"{policy}-{sched}"
            for g in gpu_counts:
                points.append(PointSpec(
                    figure=figure, series=label, x=g, app=app,
                    machine="multi_gpu", count=g, size=sizes[g],
                    config=RuntimeConfig(functional=False,
                                         cache_policy=policy,
                                         scheduler=sched),
                    want_metrics=(g == gpu_counts[-1])))
    return points


def fig5_points() -> "list[PointSpec]":
    sizes = {g: matmul.PAPER_MATMUL for g in MULTI_GPU_COUNTS}
    return _multi_gpu_points("fig5", "matmul", sizes)


def fig5(parallel: int = 0,
         scheduler: "str | None" = None) -> FigureResult:
    """Matmul on the multi-GPU node: GFLOP/s per cache policy x scheduler."""
    result = FigureResult(figure="Figure 5",
                          title="Matrix multiply, multi-GPU node",
                          x_label="GPUs", xs=list(MULTI_GPU_COUNTS),
                          unit="GFLOP/s")
    return _assemble(result, fig5_points(), parallel,
                     scheduler=scheduler)


def fig6_points() -> "list[PointSpec]":
    sizes = {g: stream.paper_stream_size(g) for g in MULTI_GPU_COUNTS}
    return _multi_gpu_points("fig6", "stream", sizes)


def fig6(parallel: int = 0,
         scheduler: "str | None" = None) -> FigureResult:
    """STREAM on the multi-GPU node: aggregate GB/s per configuration."""
    result = FigureResult(figure="Figure 6", title="STREAM, multi-GPU node",
                          x_label="GPUs", xs=list(MULTI_GPU_COUNTS),
                          unit="GB/s")
    return _assemble(result, fig6_points(), parallel,
                     scheduler=scheduler)


def fig7_points() -> "list[PointSpec]":
    points = []
    for variant, flush in (("flush", True), ("noflush", False)):
        for policy in CACHE_POLICIES:
            for g in MULTI_GPU_COUNTS:
                points.append(PointSpec(
                    figure="fig7", series=f"{variant}-{policy}", x=g,
                    app="perlin", machine="multi_gpu", count=g,
                    size=perlin.PAPER_PERLIN,
                    config=RuntimeConfig(functional=False,
                                         cache_policy=policy),
                    run_kwargs={"flush": flush}))
    return points


def fig7(parallel: int = 0,
         scheduler: "str | None" = None) -> FigureResult:
    """Perlin noise on the multi-GPU node: Mpixels/s, Flush vs NoFlush."""
    result = FigureResult(figure="Figure 7",
                          title="Perlin noise, multi-GPU node",
                          x_label="GPUs", xs=list(MULTI_GPU_COUNTS),
                          unit="Mpixels/s")
    return _assemble(result, fig7_points(), parallel,
                     scheduler=scheduler)


def fig8_points() -> "list[PointSpec]":
    points = []
    for policy in CACHE_POLICIES:
        for g in (2, 4):
            points.append(PointSpec(
                figure="fig8", series=policy, x=g, app="nbody",
                machine="multi_gpu", count=g, size=NBODY_STRESS,
                config=RuntimeConfig(functional=False, cache_policy=policy),
                run_kwargs={"fresh_buffers": True}))
    return points


def fig8(parallel: int = 0,
         scheduler: "str | None" = None) -> FigureResult:
    """N-Body on the multi-GPU node: the no-cache policy wins under GPU
    memory pressure (delayed write-back + replacement cost)."""
    result = FigureResult(figure="Figure 8",
                          title="N-Body, multi-GPU node (memory stress)",
                          x_label="GPUs", xs=[2, 4], unit="GFLOP/s")
    result.notes.append(
        f"body count scaled to {NBODY_STRESS.n} to reach the paper's GPU "
        "memory pressure regime (see DESIGN.md)")
    return _assemble(result, fig8_points(), parallel,
                     scheduler=scheduler)


# ---------------------------------------------------------------------------
# GPU cluster environment (Figs. 9-13)
# ---------------------------------------------------------------------------

def fig9_points(presends=(0, 1, 4)) -> "list[PointSpec]":
    points = []
    for stos in (False, True):
        for init in ("seq", "smp", "gpu"):
            for ps in presends:
                label = f"{'StoS' if stos else 'MtoS'}-{init}-ps{ps}"
                for nodes in CLUSTER_NODE_COUNTS:
                    points.append(PointSpec(
                        figure="fig9", series=label, x=nodes, app="matmul",
                        machine="cluster", count=nodes,
                        size=matmul.PAPER_MATMUL,
                        config=RuntimeConfig(**CLUSTER_BEST,
                                             slave_to_slave=stos,
                                             presend=ps),
                        run_kwargs={"init": init},
                        want_metrics=(nodes == CLUSTER_NODE_COUNTS[-1])))
    return points


def fig9(presends=(0, 1, 4), parallel: int = 0,
         scheduler: "str | None" = None) -> FigureResult:
    """Cluster matmul: StoS/MtoS x init mode x presend window."""
    result = FigureResult(figure="Figure 9",
                          title="Matrix multiply, GPU cluster",
                          x_label="nodes", xs=list(CLUSTER_NODE_COUNTS),
                          unit="GFLOP/s")
    return _assemble(result, fig9_points(presends), parallel,
                     scheduler=scheduler)


def _best_cluster_config(presend: int = 4,
                         **overrides) -> RuntimeConfig:
    params = dict(CLUSTER_BEST, slave_to_slave=True, presend=presend)
    params.update(overrides)
    return RuntimeConfig(**params)


def fig10_points() -> "list[PointSpec]":
    size = matmul.PAPER_MATMUL
    points = [PointSpec(figure="fig10", series="ompss-best", x=nodes,
                        app="matmul", machine="cluster", count=nodes,
                        size=size, config=_best_cluster_config(),
                        run_kwargs={"init": "smp"})
              for nodes in CLUSTER_NODE_COUNTS]
    points += [PointSpec(figure="fig10", series="mpi+cuda", x=nodes,
                         app="matmul", version="mpi_cuda",
                         machine="cluster", count=nodes, size=size)
               for nodes in CLUSTER_NODE_COUNTS]
    return points


def fig10(parallel: int = 0,
          scheduler: "str | None" = None) -> FigureResult:
    """Cluster matmul: best OmpSs setup vs the MPI+CUDA SUMMA baseline."""
    result = FigureResult(figure="Figure 10",
                          title="Matmul: OmpSs vs MPI+CUDA",
                          x_label="nodes", xs=list(CLUSTER_NODE_COUNTS),
                          unit="GFLOP/s")
    return _assemble(result, fig10_points(), parallel,
                     scheduler=scheduler)


def fig11_points() -> "list[PointSpec]":
    points = [PointSpec(figure="fig11", series="ompss", x=nodes,
                        app="stream", machine="cluster", count=nodes,
                        size=stream.paper_stream_size(nodes),
                        config=_best_cluster_config())
              for nodes in CLUSTER_NODE_COUNTS]
    points += [PointSpec(figure="fig11", series="mpi+cuda", x=nodes,
                         app="stream", version="mpi_cuda",
                         machine="cluster", count=nodes,
                         size=stream.paper_stream_size(nodes))
               for nodes in CLUSTER_NODE_COUNTS]
    return points


def fig11(parallel: int = 0,
          scheduler: "str | None" = None) -> FigureResult:
    """Cluster STREAM: OmpSs vs MPI+CUDA (embarrassingly parallel)."""
    result = FigureResult(figure="Figure 11",
                          title="STREAM, GPU cluster",
                          x_label="nodes", xs=list(CLUSTER_NODE_COUNTS),
                          unit="GB/s")
    return _assemble(result, fig11_points(), parallel,
                     scheduler=scheduler)


def fig12_points() -> "list[PointSpec]":
    size = perlin.PAPER_PERLIN
    points = []
    for series, flush in (("ompss-flush", True), ("ompss-noflush", False)):
        points += [PointSpec(figure="fig12", series=series, x=nodes,
                             app="perlin", machine="cluster", count=nodes,
                             size=size, config=_best_cluster_config(),
                             run_kwargs={"flush": flush})
                   for nodes in CLUSTER_NODE_COUNTS]
    points += [PointSpec(figure="fig12", series="mpi+cuda", x=nodes,
                         app="perlin", version="mpi_cuda",
                         machine="cluster", count=nodes, size=size,
                         run_kwargs={"flush": True})
               for nodes in CLUSTER_NODE_COUNTS]
    return points


def fig12(parallel: int = 0,
          scheduler: "str | None" = None) -> FigureResult:
    """Cluster Perlin: OmpSs Flush/NoFlush vs MPI+CUDA."""
    result = FigureResult(figure="Figure 12",
                          title="Perlin noise, GPU cluster",
                          x_label="nodes", xs=list(CLUSTER_NODE_COUNTS),
                          unit="Mpixels/s")
    return _assemble(result, fig12_points(), parallel,
                     scheduler=scheduler)


def fig13_points(n_bodies: int = 20_000) -> "list[PointSpec]":
    def size_for(nodes: int) -> nbody.NBodySize:
        return nbody.NBodySize(n=n_bodies, blocks=max(nodes, 1), iters=10)

    points = [PointSpec(figure="fig13", series="ompss", x=nodes,
                        app="nbody", machine="cluster", count=nodes,
                        size=size_for(nodes), config=_best_cluster_config())
              for nodes in CLUSTER_NODE_COUNTS]
    points += [PointSpec(figure="fig13", series="mpi+cuda", x=nodes,
                         app="nbody", version="mpi_cuda",
                         machine="cluster", count=nodes,
                         size=size_for(nodes))
               for nodes in CLUSTER_NODE_COUNTS]
    return points


# ---------------------------------------------------------------------------
# Data-movement optimisation layer (baseline vs datamove)
# ---------------------------------------------------------------------------

#: the three datamove mechanisms, all on (presend_depth only acts on
#: cluster runs; it is a documented no-op on a single node).
DATAMOVE_FLAGS = dict(wb_elision=True, presend_depth=4,
                      cost_aware_eviction=True)

#: the communication-bound evaluation points the layer targets:
#: * ``matmul-cluster`` — 4 nodes, master-routed transfers (MtoS), no
#:   presend credit: the master NIC is the bottleneck (Fig. 9's worst
#:   corner), which is where prestaging buys its keep;
#: * ``stream-mgpu`` — 4 GPUs with the software cache squeezed to 20% of
#:   device memory: the eviction/write-back path dominates, which is what
#:   elision + cost-aware eviction attack.
DATAMOVE_POINTS = ("matmul-cluster", "stream-mgpu")


def _datamove_base(point: str) -> dict:
    if point == "matmul-cluster":
        return dict(app="matmul", machine="cluster", count=4,
                    size=matmul.PAPER_MATMUL,
                    run_kwargs={"init": "seq"},
                    cfg=dict(CLUSTER_BEST, slave_to_slave=False,
                             presend=0))
    return dict(app="stream", machine="multi_gpu", count=4,
                size=stream.paper_stream_size(4), run_kwargs={},
                cfg=dict(functional=False, cache_policy="wb",
                         scheduler="affinity", overlap=True, prefetch=True,
                         gpu_cache_fraction=0.2))


def fig_datamove_points() -> "list[PointSpec]":
    points = []
    for series, flags in (("baseline", {}), ("datamove", DATAMOVE_FLAGS)):
        for point in DATAMOVE_POINTS:
            base = _datamove_base(point)
            points.append(PointSpec(
                figure="fig-dm", series=series, x=point,
                app=base["app"], machine=base["machine"],
                count=base["count"], size=base["size"],
                config=RuntimeConfig(**base["cfg"], **flags),
                run_kwargs=base["run_kwargs"], want_metrics=True))
    return points


def fig_datamove(parallel: int = 0,
                 scheduler: "str | None" = None) -> FigureResult:
    """Baseline vs the datamove layer on the communication-bound points.

    Series are *makespans* (lower is better), unlike the paper figures'
    throughput units, because the two points measure different apps on
    different machines — only the baseline/datamove ratio is comparable.
    """
    result = FigureResult(figure="Figure DM",
                          title="Data-movement layer, comm-bound points",
                          x_label="point", xs=list(DATAMOVE_POINTS),
                          unit="s (makespan)")
    _assemble(result, fig_datamove_points(), parallel, scheduler=scheduler,
              value="makespan", per_point=True)
    base, opt = result.series["baseline"], result.series["datamove"]
    for point, b, o in zip(DATAMOVE_POINTS, base, opt):
        result.notes.append(
            f"{point}: {b:.3f}s -> {o:.3f}s "
            f"({(b - o) / b:+.1%} makespan reduction)")
    return result


def fig13(n_bodies: int = 20_000, parallel: int = 0,
          scheduler: "str | None" = None) -> FigureResult:
    """Cluster N-Body: OmpSs vs MPI+CUDA under all-to-all exchange.

    The paper's own 20000-body system: per-node compute shrinks
    quadratically with the node count while the all-to-all grows, which is
    exactly the regime where the two versions' communication structure
    (synchronous Allgather vs runtime-managed transfers) separates them.
    """
    result = FigureResult(figure="Figure 13",
                          title="N-Body, GPU cluster",
                          x_label="nodes", xs=list(CLUSTER_NODE_COUNTS),
                          unit="GFLOP/s")
    return _assemble(result, fig13_points(n_bodies), parallel,
                     scheduler=scheduler)


# ---------------------------------------------------------------------------
# Figure IRR: the irregular apps (ROADMAP item 3) under every policy
# ---------------------------------------------------------------------------

#: every policy ``make_scheduler`` knows, paper tier first.
SCHED_POLICIES = runtime_config.SCHEDULERS

IRR_POINTS = ("jacobi-mgpu", "jacobi-cluster",
              "spreduce-mgpu", "spreduce-cluster")


def _irr_base(point: str) -> dict:
    from ..apps import jacobi, spreduce
    app, machine = point.split("-")
    size = (jacobi.PAPER_JACOBI if app == "jacobi"
            else spreduce.PAPER_SPREDUCE)
    if machine == "cluster":
        cfg = {k: v for k, v in CLUSTER_BEST.items() if k != "scheduler"}
        return dict(app=app, machine="cluster", count=4, size=size,
                    cfg=dict(cfg, presend=2))
    return dict(app=app, machine="multi_gpu", count=4, size=size,
                cfg=dict(functional=False, overlap=True, prefetch=True))


def fig_irr_points() -> "list[PointSpec]":
    points = []
    for policy in SCHED_POLICIES:
        for point in IRR_POINTS:
            base = _irr_base(point)
            points.append(PointSpec(
                figure="fig-irr", series=policy, x=point,
                app=base["app"], machine=base["machine"],
                count=base["count"], size=base["size"],
                config=RuntimeConfig(**dict(base["cfg"],
                                            scheduler=policy)),
                want_metrics=(point == "spreduce-mgpu")))
    return points


def fig_irr(parallel: int = 0,
            scheduler: "str | None" = None) -> FigureResult:
    """Irregular workloads (Jacobi halo exchange, sparse reduction) under
    every scheduling policy.

    Series are makespans (lower is better).  ``scheduler`` is accepted
    for CLI uniformity but ignored — this figure sweeps every policy.
    """
    result = FigureResult(figure="Figure IRR",
                          title="Irregular apps, all scheduling policies",
                          x_label="point", xs=list(IRR_POINTS),
                          unit="s (makespan)")
    _assemble(result, fig_irr_points(), parallel, value="makespan",
              per_point=True)
    for i, point in enumerate(IRR_POINTS):
        best = min(SCHED_POLICIES, key=lambda p: result.series[p][i])
        result.notes.append(
            f"{point}: best policy {best} "
            f"{result.series[best][i]:.4f}s")
    return result
