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
SCHEDULING_FIELDS = ("tenant", "priority")


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


def _diff(obj, always: "tuple[str, ...]" = ()) -> dict:
    """The dataclass ``obj``'s fields named in ``always`` or differing
    from their defaults, in field order."""
    base = _defaults(type(obj))
    return {f.name: getattr(obj, f.name) for f in fields(obj)
            if f.name in always or getattr(obj, f.name) != base[f.name]}


def _plan_to_dict(plan: FaultPlan) -> dict:
    doc = _diff(plan, always=("events",))
    doc["events"] = [_diff(ev, always=("kind",)) for ev in plan.events]
    return doc


def _plan_from_dict(doc: dict) -> FaultPlan:
    doc = dict(doc)
    events = tuple(FaultEvent(**ev) for ev in doc.pop("events", ()))
    return FaultPlan(events=events, **doc)


def _config_to_dict(config: RuntimeConfig) -> dict:
    doc = _diff(config)
    if "cache_policy" in doc:
        doc["cache_policy"] = doc["cache_policy"].value
    if "fault_plan" in doc:
        doc["fault_plan"] = _plan_to_dict(doc["fault_plan"])
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
    #: accounting label; part of default job ids, so file-name safe.
    tenant: str = "default"
    #: higher dispatches first; equal priorities go in submission order.
    priority: int = 0
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
        if (not self.tenant or self.tenant.startswith(".")
                or "/" in self.tenant or "\0" in self.tenant):
            raise ValueError(f"bad tenant {self.tenant!r} (want non-empty, "
                             f"no '/' or NUL, no leading '.')")
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
        # Imported here: hashlib loads OpenSSL, which a run that never
        # consults the service's result cache should not pay for.
        import hashlib

        return hashlib.sha256(text.encode()).hexdigest()

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> dict:
        doc = _diff(self, always=("app",))
        if "config" in doc:
            doc["config"] = _config_to_dict(doc["config"])
        if "fault_plan" in doc:
            doc["fault_plan"] = _plan_to_dict(doc["fault_plan"])
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

    def to_dict(self) -> dict:
        """Every field but ``metrics`` (staged as ``metrics.json``)."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "metrics"}
        doc["state"] = self.state.value
        return doc
