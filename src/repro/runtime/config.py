"""Runtime configuration: the knobs the paper's evaluation sweeps.

Every option corresponds to a configuration dimension in Section IV:

* ``cache_policy`` — nocache / wt / wb (Figs. 5-8), fixed for the run;
* ``scheduler`` — bf / default (dependencies) / affinity (Figs. 5-6), rows
  of the scheduler's policy table (``repro.runtime.scheduler.POLICIES``);
* ``overlap`` — transfer/compute overlap via CUDA streams + pinned staging
  (Section III.D.2, "disabled by default but can be requested");
* ``prefetch`` — GPU data prefetch of the next scheduled task;
* ``presend`` — how many tasks the master pre-sends to a remote node beyond
  the one executing (Fig. 9's presend sweep);
* ``slave_to_slave`` — direct StoS data transfers vs routing via the master
  (Fig. 9's MtoS/StoS dimension);
* ``steal`` — work stealing between the queues of one node's places (the
  steal rules of the ``affinity`` / ``ws`` / ``cp`` rows).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..memory.cache import CachePolicy

__all__ = ["RuntimeConfig", "SCHEDULERS"]

#: the rows of the policy table in table order — the paper's three policies,
#: then ``ws`` work-stealing and ``cp`` critical-path lookahead — plus
#: ``adaptive``, the metrics-driven controller switching between rows
#: (docs/SCHEDULERS.md).  The order is part of the interface: sweeps index it.
SCHEDULERS = ("bf", "default", "affinity", "ws", "cp", "adaptive")


@dataclass(frozen=True)
class RuntimeConfig:
    cache_policy: CachePolicy = CachePolicy.WRITE_BACK
    scheduler: str = "default"
    overlap: bool = False
    prefetch: bool = False
    presend: int = 0
    slave_to_slave: bool = True
    steal: bool = True
    #: functional mode moves real NumPy data; performance mode only times.
    functional: bool = True
    #: fraction of GPU memory usable by the software cache (the rest models
    #: CUDA context/code overheads).
    gpu_cache_fraction: float = 0.9
    #: relative kernel-duration variability (deterministic pseudo-noise);
    #: models real launch-to-launch variance so schedules do not lock-step.
    kernel_jitter: float = 0.03
    #: per-task runtime management cost on the executing thread's critical
    #: path (graph insertion, clause evaluation, cache lookups — calibrated
    #: for the 2012-era Nanos++ implementation).
    task_overhead: float = 150e-6
    #: optional :class:`repro.faults.FaultPlan`.  ``None`` (or an empty
    #: plan) leaves every fault hook dormant — the simulation schedules not
    #: a single extra event, so timed results stay bit-identical.  Typed
    #: ``object`` to keep this module import-light (faults imports runtime
    #: pieces lazily, not the other way around).
    fault_plan: object = None
    # -- data-movement optimisation layer (repro.runtime.datamove) --------
    # Every flag defaults off: with all of them at their defaults the
    # runtime constructs no DataMover and executes the identical event
    # stream, keeping the golden makespans bit-identical.
    #: skip the host write-back of a dirty region whose version is dead —
    #: no live task still reads it and a live task will overwrite it.
    wb_elision: bool = False
    #: tasks the cluster master prestages *beyond* the presend credit
    #: window, via scheduler lookahead: slaves compute task k while the
    #: inputs of tasks k+1..k+depth are already in flight.
    presend_depth: int = 0
    #: break cache-eviction LRU ties by re-fetch cost (nbytes divided by
    #: the source link bandwidth): cheap-to-refetch regions evict first.
    cost_aware_eviction: bool = False

    def __post_init__(self):
        object.__setattr__(self, "cache_policy",
                           CachePolicy.parse(self.cache_policy))
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; "
                f"expected one of {SCHEDULERS}"
            )
        if self.presend < 0:
            raise ValueError("presend window cannot be negative")
        if not 0 < self.gpu_cache_fraction <= 1:
            raise ValueError("gpu_cache_fraction must be in (0, 1]")
        if not 0 <= self.kernel_jitter < 1:
            raise ValueError("kernel_jitter must be in [0, 1)")
        if self.task_overhead < 0:
            raise ValueError("task_overhead cannot be negative")
        if self.presend_depth < 0:
            raise ValueError("presend_depth cannot be negative")
        if self.fault_plan is not None and not hasattr(
                self.fault_plan, "is_empty"):
            # Duck-typed on purpose: importing repro.faults here would
            # create a cycle (faults -> runtime internals).
            raise TypeError(
                f"fault_plan must be a FaultPlan or None, "
                f"got {type(self.fault_plan).__name__}")

    def with_(self, **changes) -> "RuntimeConfig":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **changes)
