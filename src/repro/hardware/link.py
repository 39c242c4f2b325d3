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
    multi-engine concurrency (``lanes > 1``)."""

    def __init__(self, env: Environment, bandwidth: float, latency: float,
                 name: str = "", lanes: int = 1):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        self.env = env
        self.bandwidth = bandwidth
        self.latency = latency
        self.name = name
        self._lanes = Resource(env, capacity=lanes, name=name)
        self.bytes_moved = 0
        self.transfer_count = 0
        #: cumulative seconds the link was held, latency term included.
        self.busy_seconds = 0.0
        #: hold-time multiplier, driven by fault-injection degradation
        #: windows (1.0 = healthy; multiplying by 1.0 is IEEE-exact, so
        #: the healthy path is bit-identical to an undegraded link).
        self.degradation = 1.0
        # bound ``hardware.link.<name>.*`` instruments (see attach_metrics)
        self._m_bytes = None
        self._m_transfers = None
        self._m_busy = None

    def attach_metrics(self, registry) -> None:
        """Mirror this link's statistics into ``hardware.link.<name>.*``
        counters of ``registry`` (a CounterRegistry).  Recording never
        touches simulated time, so attaching is timing-neutral."""
        prefix = f"hardware.link.{self.name}"
        self._m_bytes = registry.counter(f"{prefix}.bytes_moved")
        self._m_transfers = registry.counter(f"{prefix}.transfers")
        self._m_busy = registry.gauge(f"{prefix}.busy_seconds")

    def occupancy(self, nbytes: int) -> float:
        """Time the link is held for an ``nbytes`` transfer."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        return (self.latency + nbytes / self.bandwidth) * self.degradation

    def account(self, nbytes: int, seconds: float) -> None:
        """Record a completed hold of ``seconds`` moving ``nbytes``.
        ``seconds`` must be the full hold time (latency included)."""
        self.bytes_moved += nbytes
        self.transfer_count += 1
        self.busy_seconds += seconds
        if self._m_bytes is not None:
            self._m_bytes.value += nbytes
            self._m_transfers.value += 1
            self._m_busy.set(self.busy_seconds)

    def transfer(self, nbytes: int, priority: int = 0):
        """Process generator: move ``nbytes`` across the link."""
        with self._lanes.request(priority=priority) as req:
            yield req
            # Occupancy is evaluated once the lane is granted, so a
            # degradation window opening while queued still applies.
            hold = self.occupancy(nbytes)
            yield self.env.timeout(hold)
        self.account(nbytes, hold)

    @property
    def busy(self) -> bool:
        return self._lanes.count > 0

    @property
    def queue_len(self) -> int:
        return self._lanes.queue_len
