"""Point-to-point transfer media (PCIe lanes, NIC ports, memory buses).

A :class:`Link` serializes transfers in one direction: each transfer holds the
link for ``latency + bytes / bandwidth`` seconds.  Contention (e.g. every
slave pulling data through the master's NIC) emerges from queuing on the
underlying :class:`~repro.sim.Resource`.

Busy-time accounting charges the *full* hold time — the latency term
included — so a stream of tiny transfers (each dominated by latency) reports
the link as busy for exactly as long as it really was held.  Counting only
``bytes / bandwidth`` would make a latency-bound link look almost idle.
"""

from __future__ import annotations

from ..sim import Environment, Resource

__all__ = ["Link"]


class Link:
    """A unidirectional channel with bandwidth, latency and optional
    multi-engine concurrency (``lanes > 1``).  ``name`` keys the link's
    counters, so it must be unique within its environment."""

    def __init__(self, env: Environment, bandwidth: float, latency: float,
                 name: str = "link", lanes: int = 1):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        self.env = env
        self.bandwidth = bandwidth
        self.latency = latency
        self.name = name
        self._lanes = Resource(env, capacity=lanes, name=name)
        #: hold-time multiplier, driven by fault-injection degradation
        #: windows (1.0 = healthy; multiplying by 1.0 is IEEE-exact, so
        #: the healthy path is bit-identical to an undegraded link).
        self.degradation = 1.0
        # The one place this link's statistics live.
        prefix = f"hardware.link.{name}"
        metrics = env.metrics
        self._c_bytes = metrics.counter(f"{prefix}.bytes_moved")
        self._c_transfers = metrics.counter(f"{prefix}.transfers")
        self._g_busy = metrics.gauge(f"{prefix}.busy_seconds")

    def occupancy(self, nbytes: int) -> float:
        """Time the link is held for an ``nbytes`` transfer."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        return (self.latency + nbytes / self.bandwidth) * self.degradation

    def account(self, nbytes: int, seconds: float) -> None:
        """Record a completed hold of ``seconds`` moving ``nbytes``.
        ``seconds`` must be the full hold time (latency included)."""
        self._c_bytes.value += nbytes
        self._c_transfers.value += 1
        busy = self._g_busy
        busy.set(busy.value + seconds)

    def transfer(self, nbytes: int, priority: int = 0):
        """Process generator: move ``nbytes`` across the link."""
        with self._lanes.request(priority=priority) as req:
            yield req
            # Occupancy is evaluated once the lane is granted, so a
            # degradation window opening while queued still applies.
            hold = self.occupancy(nbytes)
            yield self.env.timeout(hold)
        self.account(nbytes, hold)
