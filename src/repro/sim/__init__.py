"""Deterministic discrete-event simulation engine.

This subpackage is the substrate clock for the whole reproduction: runtime
threads, GPU engines, PCIe and network links, and MPI ranks are all simulated
processes over one :class:`Environment`.
"""

from .core import (
    Environment,
    Event,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    SimulationError,
    StopSimulation,
    Timeout,
)
from .process import Process
from .resources import Request, Resource, Store
from .sync import AllOf, AnyOf

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Resource",
    "Request",
    "Store",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "StopSimulation",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "PRIORITY_LOW",
]
