"""Nanos++ reimplementation: the paper's primary contribution.

Task model, dependency graph, the scheduler core and its policy table,
coherence engine over the directory and per-GPU software caches, GPU manager
threads, and the cluster master/slave machinery with presend and
slave-to-slave transfers.
"""

from .config import RuntimeConfig, SCHEDULERS
from .coherence import CoherenceEngine
from .dependences import DependencyGraph
from .gpu_manager import GPUManager
from .runtime import Image, Runtime
from .scheduler import Scheduler, make_scheduler
from .task import Access, Direction, Task, TaskState
from .trace import TraceEvent, Tracer
from .worker import SMPWorker

__all__ = [
    "Runtime",
    "Image",
    "RuntimeConfig",
    "SCHEDULERS",
    "Task",
    "Access",
    "Direction",
    "TaskState",
    "DependencyGraph",
    "CoherenceEngine",
    "Scheduler",
    "make_scheduler",
    "GPUManager",
    "SMPWorker",
    "Tracer",
    "TraceEvent",
]
