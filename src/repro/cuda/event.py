"""CUDA events: stream markers for synchronization and timing.

``record`` enqueues the event on a stream (it fires when all prior work on
that stream completes, stamping ``completed_at``); ``synchronize`` waits
for it — what the GPU manager's "synchronizing their execution" amounts
to at the driver level.
"""

from __future__ import annotations

from typing import Optional

from ..sim import Environment, Event
from .stream import Stream

__all__ = ["CudaEvent"]


class CudaEvent:
    """A recordable marker in a stream's work queue."""

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._completion: Optional[Event] = None
        self.completed_at: Optional[float] = None

    def record(self, stream: Stream) -> "CudaEvent":
        """Enqueue this event on ``stream`` (cudaEventRecord)."""

        def marker():
            self.completed_at = self.env.now
            return self
            yield  # pragma: no cover - generator marker

        self._completion = stream.enqueue(marker)
        return self

    def synchronize(self) -> Event:
        """Event firing once this marker has completed (cudaEventSynchronize)."""
        if self._completion is None:
            raise RuntimeError(f"event {self.name!r} was never recorded")
        return self._completion
