"""Declarative, seeded fault plans.

A :class:`FaultPlan` is an immutable description of *what goes wrong and
when* during a simulated run: a tuple of :class:`FaultEvent` records plus
the knobs of the recovery machinery (AM retry budget, task re-execution
budget, output checkpointing).  Plans are pure data — the interpretation
lives in :mod:`repro.faults.engine` — so the same plan object can be run
against different machines and produce per-seed deterministic outcomes.

Event kinds
-----------

``gpu_loss``
    The GPU ``gpu`` of node ``node`` dies at time ``at`` and never comes
    back.  Its cache and directory replicas are invalidated, its queued
    and running tasks are re-executed elsewhere.
``kernel_abort``
    An ECC-style abort: a kernel launch on the matching device fails
    after running for its full duration (the task is re-executed).
    Select victims with ``nth`` (the n-th kernel on that device, 1-based)
    or ``probability`` (per launch).
``link_degrade``
    Inter-node wire time is multiplied by ``factor`` during the window
    ``[at, at + duration)`` for traffic matching ``src``/``dst``.
``link_partition``
    Active messages matching ``src``/``dst`` vanish during the window
    ``[at, at + duration)`` (they are retried until the partition heals
    or the retry budget runs out).
``pcie_degrade``
    The H2D/D2H links of GPU ``gpu`` on node ``node`` are slowed by
    ``factor`` during ``[at, at + duration)``.
``am_drop`` / ``am_corrupt`` / ``am_ack_drop``
    One active-message attempt is lost in flight, delivered corrupted
    (discarded by the receiver), or delivered but its acknowledgement is
    lost (the sender retries; the receiver deduplicates by idempotency
    token).  Select with ``nth`` (the n-th AM attempt overall, 1-based)
    or ``probability`` (per attempt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["FaultEvent", "FaultPlan", "KINDS"]

#: Recognised event kinds.
KINDS = (
    "gpu_loss",
    "kernel_abort",
    "link_degrade",
    "link_partition",
    "pcie_degrade",
    "am_drop",
    "am_corrupt",
    "am_ack_drop",
)

_WINDOWED = {"link_degrade", "link_partition", "pcie_degrade"}
_TRIGGERED = {"kernel_abort", "am_drop", "am_corrupt", "am_ack_drop"}


@dataclass(frozen=True)
class FaultEvent:
    """One fault. Unused fields for a kind are ignored (but validated)."""

    kind: str
    #: Virtual time of the event (or start of its window), seconds.
    at: float = 0.0
    #: Window length for windowed kinds; ``inf`` = until the end of the run.
    duration: float = math.inf
    #: Node / GPU selectors (``None`` = any).
    node: Optional[int] = None
    gpu: Optional[int] = None
    #: Endpoint selectors for link/AM kinds (node indices, ``None`` = any).
    src: Optional[int] = None
    dst: Optional[int] = None
    #: Slowdown multiplier for degrade kinds.
    factor: float = 1.0
    #: Per-attempt probability for triggered kinds.
    probability: float = 0.0
    #: Deterministic selector for triggered kinds: hit exactly the n-th
    #: matching attempt (1-based). Takes precedence over ``probability``.
    nth: Optional[int] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 0:
            raise ValueError("fault time must be non-negative")
        if self.kind in _WINDOWED and self.duration <= 0:
            raise ValueError(f"{self.kind} needs a positive duration")
        if self.kind in ("link_degrade", "pcie_degrade") and self.factor < 1.0:
            raise ValueError("degradation factor must be >= 1.0")
        if self.kind == "gpu_loss" and (self.node is None or self.gpu is None):
            raise ValueError("gpu_loss needs explicit node and gpu")
        if self.kind == "pcie_degrade" and (self.node is None or self.gpu is None):
            raise ValueError("pcie_degrade needs explicit node and gpu")
        if self.kind in _TRIGGERED:
            if self.nth is None and not (0.0 < self.probability <= 1.0):
                raise ValueError(
                    f"{self.kind} needs nth or a probability in (0, 1]")
            if self.nth is not None and self.nth < 1:
                raise ValueError("nth is 1-based")

    def matches_link(self, src: int, dst: int) -> bool:
        return ((self.src is None or self.src == src)
                and (self.dst is None or self.dst == dst))

    def matches_device(self, node: int, gpu: int) -> bool:
        return ((self.node is None or self.node == node)
                and (self.gpu is None or self.gpu == gpu))


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of faults plus recovery knobs.

    The empty plan (``FaultPlan()``) is the documented no-op: the runtime
    treats it exactly like no plan at all, so the fault machinery adds
    zero scheduled events and golden makespans stay bit-identical.
    """

    events: tuple = ()
    #: Seed of the engine's private RNG (probabilistic events draw from it
    #: in deterministic simulation order).
    seed: int = 0
    #: AM watchdog: how long the sender waits for completion per attempt.
    am_timeout: float = 10e-3
    #: First retry backoff; multiplied by ``am_backoff_factor`` each retry.
    am_backoff: float = 1e-3
    am_backoff_factor: float = 2.0
    #: Attempts per logical AM before the send fails loudly.
    am_max_retries: int = 10
    #: Re-executions per task before the run fails loudly.
    max_task_retries: int = 8
    #: Checkpoint-on-commit: write every task output back to its node's
    #: host memory so a later device loss never strands the sole copy.
    protect_outputs: bool = True
    #: Run coherence invariant checks after every recovery action (used by
    #: the chaos suite; costs wall time, not virtual time).
    paranoid: bool = False

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        for ev in self.events:
            if not isinstance(ev, FaultEvent):
                raise TypeError(f"not a FaultEvent: {ev!r}")
        if self.am_timeout <= 0 or self.am_backoff <= 0:
            raise ValueError("am_timeout and am_backoff must be positive")
        if self.am_backoff_factor < 1.0:
            raise ValueError("am_backoff_factor must be >= 1.0")
        if self.am_max_retries < 1 or self.max_task_retries < 0:
            raise ValueError("retry budgets out of range")

    @property
    def is_empty(self) -> bool:
        return not self.events

    def by_kind(self, *kinds: str) -> tuple:
        return tuple(ev for ev in self.events if ev.kind in kinds)
