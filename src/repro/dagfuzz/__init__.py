"""Seeded DAG fuzzing + differential testing of the whole runtime.

The scenario-diversity layer (ROADMAP item 3): a seed-deterministic
random task-graph generator with named profiles, a sequential
differential oracle demanding bit-identical buffers under every
scheduler / cache policy / datamove configuration, mutation modes that
re-introduce known bug classes to prove the oracle catches them, and a
greedy shrinker that turns a failing seed into a minimal reproducer.

See docs/DAGFUZZ.md for the guide and ``python -m repro.dagfuzz`` for
the driver.
"""

from .generator import generate
from .mutations import MUTATIONS
from .profiles import PROFILES, FuzzProfile
from .runner import (
    MACHINES,
    CheckResult,
    check_workload,
    run_workload,
    sequential_reference,
)
from .shrink import shrink, shrink_trace
from .spec import MODULUS, OpSpec, WorkloadSpec, task_count

__all__ = [
    "generate",
    "FuzzProfile",
    "PROFILES",
    "OpSpec",
    "WorkloadSpec",
    "task_count",
    "MODULUS",
    "MACHINES",
    "CheckResult",
    "check_workload",
    "run_workload",
    "sequential_reference",
    "MUTATIONS",
    "shrink",
    "shrink_trace",
]
