"""One scheduler core, the policy table (the paper's ``bf`` / ``default`` /
``affinity`` plus ``ws`` and ``cp``), and the metrics-driven ``adaptive``
controller on top of it — see docs/SCHEDULERS.md."""

from typing import Callable

from ...memory.directory import Directory
from .adaptive import AdaptiveScheduler
from .base import PriorityTaskQueue, Scheduler, TaskQueue, WorkerProtocol
from .critical_path import BottomLevelEstimator
from .policies import POLICIES, Policy

__all__ = [
    "Scheduler",
    "AdaptiveScheduler",
    "Policy",
    "POLICIES",
    "TaskQueue",
    "PriorityTaskQueue",
    "WorkerProtocol",
    "BottomLevelEstimator",
    "make_scheduler",
]


def make_scheduler(name: str, notify: Callable[..., None],
                   directory: Directory, steal: bool = True,
                   metrics=None) -> Scheduler:
    """Instantiate a scheduling policy by its evaluation-chart name."""
    if name == "adaptive":
        return AdaptiveScheduler(notify, directory, steal=steal,
                                 metrics=metrics)
    if name not in POLICIES:
        raise ValueError(f"unknown scheduler {name!r}")
    return Scheduler(notify, directory, POLICIES[name], steal=steal,
                     metrics=metrics)
