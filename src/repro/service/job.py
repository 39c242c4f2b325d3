"""Declarative job descriptions and result bundles.

A :class:`JobRequest` is pure data — everything a backend needs to
reproduce a run, and nothing live: app name + size parameters instead of
arrays, a machine *shape* instead of a machine, a
:class:`~repro.runtime.config.RuntimeConfig` instead of a runtime.  That
is what makes a request process-portable (the pool backend pickles it to
a worker) and serializable (the CLI stages it as ``request.json``).

A :class:`JobResult` is the summary half of the artifact bundle: state,
makespan/metric, error traceback for failures, and the names of the
artifacts staged next to it (see :mod:`repro.service.staging`).

Serialization is *diff-based*: ``to_dict`` writes only fields that differ
from their defaults, so ``request.json`` stays a human-sized document and
round-trips through ``from_dict`` bit-identically (the dataclasses are
frozen and validated, so a decoded request re-runs its own checks).
The same encoding, minus the scheduling-only fields, is a request's
identity: :meth:`JobRequest.content_key` is what the service's result
cache compares.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Optional

from ..faults.plan import FaultEvent, FaultPlan
from ..runtime.config import SCHEDULERS, RuntimeConfig

__all__ = ["APPS", "MACHINES", "VERSIONS", "SCHEDULING_FIELDS", "JobState",
           "JobRequest", "JobResult"]

#: Apps a request may name (each has a ``repro.apps.<app>`` package).
APPS = ("matmul", "stream", "perlin", "nbody", "cholesky", "jacobi",
        "spreduce")
#: Hardware shapes: the paper's multi-GPU node or the GPU cluster.
MACHINES = ("multi_gpu", "cluster")
#: Program versions a service job may run.  ``ompss`` is the annotated
#: task version (full runtime, metrics, trace, sanitizer); ``mpi_cuda``
#: is the hand-written comparison baseline (timings only).
VERSIONS = ("ompss", "mpi_cuda")
#: Request fields that decide when and on whose account a job runs, never
#: what it computes; :meth:`JobRequest.content_key` ignores exactly these.
SCHEDULING_FIELDS = ("tenant", "priority", "cost")


class JobState(str, Enum):
    """Lifecycle: queued → running → done | failed."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED)


def _defaults(cls) -> dict:
    out = {}
    for f in fields(cls):
        if f.default is not dataclasses.MISSING:
            out[f.name] = f.default
        elif f.default_factory is not dataclasses.MISSING:
            out[f.name] = f.default_factory()
    return out


def _event_to_dict(ev: FaultEvent) -> dict:
    base = _defaults(FaultEvent)
    doc = {"kind": ev.kind}
    for f in fields(FaultEvent):
        v = getattr(ev, f.name)
        if f.name != "kind" and v != base[f.name]:
            doc[f.name] = v
    return doc


def _plan_to_dict(plan: FaultPlan) -> dict:
    base = _defaults(FaultPlan)
    doc: dict = {"events": [_event_to_dict(ev) for ev in plan.events]}
    for f in fields(FaultPlan):
        v = getattr(plan, f.name)
        if f.name != "events" and v != base[f.name]:
            doc[f.name] = v
    return doc


def _plan_from_dict(doc: dict) -> FaultPlan:
    doc = dict(doc)
    events = tuple(FaultEvent(**ev) for ev in doc.pop("events", ()))
    return FaultPlan(events=events, **doc)


def _config_to_dict(config: RuntimeConfig) -> dict:
    base = _defaults(RuntimeConfig)
    doc = {}
    for f in fields(RuntimeConfig):
        v = getattr(config, f.name)
        if v == base[f.name]:
            continue
        if f.name == "cache_policy":
            v = v.value
        elif f.name == "fault_plan":
            v = _plan_to_dict(v)
        doc[f.name] = v
    return doc


def _config_from_dict(doc: dict) -> RuntimeConfig:
    doc = dict(doc)
    if "fault_plan" in doc:
        doc["fault_plan"] = _plan_from_dict(doc["fault_plan"])
    return RuntimeConfig(**doc)


@dataclass(frozen=True)
class JobRequest:
    """One run, described declaratively.  Pure picklable data."""

    #: application name (one of :data:`APPS`).
    app: str
    #: program version (one of :data:`VERSIONS`).
    version: str = "ompss"
    #: hardware shape (one of :data:`MACHINES`).
    machine: str = "multi_gpu"
    #: GPU count (multi_gpu) or node count (cluster).
    count: int = 1
    #: keyword arguments for the app's frozen Size dataclass
    #: (e.g. ``{"n": 256, "bs": 64}`` for matmul); ``None`` uses the
    #: app's ``TEST_*`` size.
    size: Optional[dict] = None
    #: runtime configuration; ``None`` means ``RuntimeConfig()``.
    config: Optional[RuntimeConfig] = None
    #: scheduling-policy override (replaces ``config.scheduler``).
    scheduler: Optional[str] = None
    #: optional fault plan (replaces ``config.fault_plan``).
    fault_plan: Optional[FaultPlan] = None
    #: run under the annotation sanitizer and attach its findings to the
    #: bundle.  Requires a functional-mode ompss run (bodies must execute).
    sanitize: bool = False
    #: record task/kernel/transfer spans and attach the Chrome trace.
    collect_trace: bool = True
    #: fair-share accounting identity.
    tenant: str = "default"
    #: higher dispatches first; fairness applies within a priority class.
    priority: int = 0
    #: fair-share charge of this job (virtual time advanced per dispatch).
    cost: float = 1.0
    #: extra keyword arguments for the app entry point (``init=`` …).
    run_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.app not in APPS:
            raise ValueError(f"unknown app {self.app!r}; expected one of "
                             f"{APPS}")
        if self.machine not in MACHINES:
            raise ValueError(f"unknown machine {self.machine!r}; expected "
                             f"one of {MACHINES}")
        if self.version not in VERSIONS:
            raise ValueError(f"unknown version {self.version!r}; expected "
                             f"one of {VERSIONS}")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.scheduler is not None and self.scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {self.scheduler!r}; "
                             f"expected one of {SCHEDULERS}")
        if self.cost <= 0:
            raise ValueError("cost must be positive")
        if not self.tenant:
            raise ValueError("tenant must be non-empty")
        if self.config is not None and not isinstance(self.config,
                                                      RuntimeConfig):
            raise TypeError("config must be a RuntimeConfig or None")
        if self.fault_plan is not None and not isinstance(self.fault_plan,
                                                          FaultPlan):
            raise TypeError("fault_plan must be a FaultPlan or None")
        if self.sanitize:
            if self.version != "ompss":
                raise ValueError("sanitize requires the ompss version")
            if self.config is not None and not self.config.functional:
                raise ValueError("sanitize requires a functional-mode "
                                 "config (bodies must actually run)")

    @property
    def label(self) -> str:
        return f"{self.tenant}/{self.app}-{self.version}@" \
               f"{self.machine}x{self.count}"

    def resolved_config(self) -> RuntimeConfig:
        """The effective :class:`RuntimeConfig` after overrides."""
        config = self.config or RuntimeConfig()
        if self.scheduler is not None:
            config = config.with_(scheduler=self.scheduler)
        if self.fault_plan is not None:
            config = config.with_(fault_plan=self.fault_plan)
        return config

    def content_key(self) -> Optional[str]:
        """Digest of what :func:`~repro.service.runner.execute_request`
        reads: requests with equal keys run the same simulation.

        The key is the sha256 of the canonical JSON of the request with
        the ``scheduler`` / ``fault_plan`` overrides folded into the
        config (so every spelling of one run shares a key) and without
        :data:`SCHEDULING_FIELDS`.  ``None`` marks a request that must
        always be executed: it holds a value (in ``run_kwargs``) that
        JSON cannot encode, so it has no canonical form to compare.
        """
        doc = dataclasses.replace(self, config=self.resolved_config(),
                                  scheduler=None, fault_plan=None).to_dict()
        for name in SCHEDULING_FIELDS:
            doc.pop(name, None)
        try:
            text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        except (TypeError, ValueError):
            return None
        return hashlib.sha256(text.encode()).hexdigest()

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> dict:
        base = _defaults(JobRequest)
        doc: dict = {"app": self.app}
        for f in fields(JobRequest):
            v = getattr(self, f.name)
            if f.name == "app" or v == base[f.name]:
                continue
            if f.name == "config":
                v = _config_to_dict(v)
            elif f.name == "fault_plan":
                v = _plan_to_dict(v)
            doc[f.name] = v
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "JobRequest":
        doc = dict(doc)
        if "config" in doc:
            doc["config"] = _config_from_dict(doc["config"])
        if "fault_plan" in doc:
            doc["fault_plan"] = _plan_from_dict(doc["fault_plan"])
        return cls(**doc)


@dataclass
class JobResult:
    """Outcome summary: the ``result.json`` half of the artifact bundle.

    Bulk artifacts (full metrics snapshot, Chrome trace, stdout) live in
    their own staged files; :attr:`artifacts` names them.
    """

    job_id: str
    state: JobState
    app: str
    version: str
    tenant: str
    backend: str
    makespan: Optional[float] = None      #: simulated seconds
    metric: Optional[float] = None        #: app headline number
    metric_unit: str = ""
    #: full counter-registry snapshot of the run (``metrics.json`` holds
    #: the same data; kept here so in-process callers skip the disk).
    metrics: dict = field(default_factory=dict)
    #: sanitizer findings as plain dicts (empty when not sanitized).
    findings: list = field(default_factory=list)
    #: formatted traceback for failed jobs.
    error: Optional[str] = None
    #: artifact name → file name, relative to the job's staging dir.
    artifacts: dict = field(default_factory=dict)
    #: id of the job whose execution produced this result, when the
    #: service's result cache served it (``backend == "cache"``).
    cached_from: Optional[str] = None

    def to_dict(self, include_metrics: bool = False) -> dict:
        doc = {
            "job_id": self.job_id,
            "state": self.state.value,
            "app": self.app,
            "version": self.version,
            "tenant": self.tenant,
            "backend": self.backend,
            "makespan": self.makespan,
            "metric": self.metric,
            "metric_unit": self.metric_unit,
            "findings": self.findings,
            "error": self.error,
            "artifacts": self.artifacts,
            "cached_from": self.cached_from,
        }
        if include_metrics:
            doc["metrics"] = self.metrics
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "JobResult":
        doc = dict(doc)
        doc["state"] = JobState(doc["state"])
        doc.setdefault("metrics", {})
        return cls(**doc)
