"""Common machinery for the figure-regeneration benches."""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..hardware.cluster import Machine, build_gpu_cluster, build_multi_gpu_node
from ..runtime.config import RuntimeConfig
from ..sim import Environment
from .report import render_series, render_table

__all__ = ["FigureResult", "fresh_multi_gpu", "fresh_cluster", "run_app",
           "CLUSTER_BEST", "summarize_run"]


def summarize_run(snapshot: dict) -> dict:
    """Condense a :meth:`CounterRegistry.snapshot` into the headline
    mechanism counters the evaluation tables report per run (cache
    behaviour, data movement, cluster overlap)."""

    def total(prefix: str, suffix: str) -> float:
        return sum(v for k, v in snapshot.items()
                   if k.startswith(prefix) and k.endswith(suffix)
                   and isinstance(v, (int, float)))

    hits = total("cache.", ".hits")
    misses = total("cache.", ".misses")
    return {
        "sched": snapshot.get("scheduler.policy", "-"),
        "tasks": snapshot.get("runtime.tasks_finished", 0),
        "hits": hits,
        "misses": misses,
        "hit%": round(100.0 * hits / (hits + misses), 1)
                if hits + misses else 0.0,
        "evict": total("cache.", ".evictions"),
        "wback": total("cache.", ".writebacks"),
        "elided": snapshot.get("datamove.writebacks_elided", 0),
        "xfers": snapshot.get("coherence.transfers", 0),
        "moved MB": snapshot.get("coherence.bytes_transferred", 0) / 1e6,
        "net MB": snapshot.get("am.bytes_sent", 0) / 1e6,
        "presend": total("cluster.", ".presends"),
        "prestage": total("cluster.", ".prestages"),
        "steals": snapshot.get("scheduler.steals", 0),
    }

#: "For the GPU cluster evaluation, we have used the best parameters for the
#: cache and GPUs" (Section IV.B.2): write-back + affinity + GPU-level
#: overlap and prefetch.
CLUSTER_BEST = dict(functional=False, cache_policy="wb",
                    scheduler="affinity", overlap=True, prefetch=True)


@dataclass
class FigureResult:
    """One regenerated figure: labelled series over an x axis."""

    figure: str
    title: str
    x_label: str
    xs: Sequence[Any]
    unit: str
    series: dict[str, list[float]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: per-config condensed metrics (label -> summarize_run dict), rendered
    #: as an extra table after the figure series.
    run_metrics: dict[str, dict] = field(default_factory=dict)

    def attach_metrics(self, name: str, snapshot: dict) -> None:
        """Record a run's counter snapshot (condensed) under ``name``."""
        if snapshot:
            self.run_metrics[name] = summarize_run(snapshot)

    def render(self) -> str:
        text = render_series(f"{self.figure}: {self.title}", self.x_label,
                             self.xs, self.series, unit=self.unit)
        if self.run_metrics:
            first = next(iter(self.run_metrics.values()))
            columns = ["config"] + list(first)
            rows = [[label] + list(summary.values())
                    for label, summary in self.run_metrics.items()]
            text += "\n" + render_table(
                f"{self.figure}: per-run metrics (at {self.x_label}="
                f"{self.xs[-1]})", columns, rows)
        if self.notes:
            text += "\n" + "\n".join(f"note: {n}" for n in self.notes)
        return text


def fresh_multi_gpu(num_gpus: int) -> Machine:
    return build_multi_gpu_node(Environment(), num_gpus=num_gpus)


def fresh_cluster(num_nodes: int) -> Machine:
    """``num_nodes=1`` is the cluster node hardware with no peer to talk
    to (the paper's single-node cluster data points)."""
    return build_gpu_cluster(Environment(), num_nodes=num_nodes)


def run_app(app: str, version: str, machine: str, count: int, size,
            config: "RuntimeConfig | None", run_kwargs: dict):
    """``repro.apps.<app>.run_<version>`` on a fresh ``machine`` of ``count``
    GPUs / nodes: the one place a declarative run (a service ``JobRequest``,
    a figure's ``PointSpec`` included) becomes a call, reached through
    :func:`repro.service.runner.execute_request`.  The app package is
    imported here, so a process pays only for the apps it runs;
    ``config`` reaches OmpSs versions only — the baselines run in
    performance mode.
    """
    built = (fresh_multi_gpu if machine == "multi_gpu"
             else fresh_cluster)(count)
    run = getattr(importlib.import_module(f"repro.apps.{app}"),
                  f"run_{version}")
    kwargs = dict(run_kwargs)
    if version == "ompss":
        kwargs["config"] = config
    else:
        kwargs["functional"] = False
    return run(built, size, **kwargs)
