"""Simulated GPU device: compute engine, DMA copy engines, device memory.

The device exposes *engines* (exclusive resources) plus PCIe links; the
simulated CUDA layer (:mod:`repro.cuda`) sequences work onto them according to
stream semantics.  Memory accounting lives here; the allocator that manages it
is :class:`repro.memory.allocator.DeviceAllocator`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim import Environment, Resource
from .link import Link
from .specs import GPUSpec

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node

__all__ = ["GPUDevice", "DeviceLostError"]


class DeviceLostError(RuntimeError):
    """Work was issued to a GPU that has been lost (fault injection)."""


class GPUDevice:
    """One GPU: a compute engine, ``copy_engines`` DMA engines, and memory."""

    def __init__(self, env: Environment, spec: GPUSpec, index: int,
                 node: "Node | None" = None,
                 h2d: "Link | None" = None, d2h: "Link | None" = None):
        self.env = env
        self.spec = spec
        self.index = index
        self.node = node
        #: unique within the machine: counter names derive from it.
        self.name = (f"node{node.index}.gpu{index}" if node is not None
                     else f"gpu{index}")
        self.compute = Resource(env, capacity=1, name=f"gpu{index}.compute")
        # One PCIe link per direction — possibly shared with sibling GPUs
        # (the S2050 enclosure attaches two GPUs per host interface card).
        # The number of concurrent DMA engines limits how many directions
        # can move at once on GeForce vs Tesla.
        self.h2d = h2d or Link(env, spec.pcie_pinned_bw, spec.pcie_latency,
                               name=f"{self.name}.h2d")
        self.d2h = d2h or Link(env, spec.pcie_pinned_bw, spec.pcie_latency,
                               name=f"{self.name}.d2h")
        self.dma = Resource(env, capacity=spec.copy_engines,
                            name=f"gpu{index}.dma")
        metrics = env.metrics
        self._c_kernels = metrics.counter(f"hardware.gpu.{self.name}.kernels")
        self._c_busy = metrics.counter(
            f"hardware.gpu.{self.name}.busy_seconds")
        #: set by the fault engine on a ``gpu_loss`` event; the device
        #: refuses new kernels afterwards (its manager stops first).
        self.failed = False

    @property
    def mem_capacity(self) -> int:
        return self.spec.mem_capacity

    def run_kernel(self, duration: float):
        """Process generator: occupy the compute engine for ``duration``."""
        if duration < 0:
            raise ValueError(f"negative kernel duration {duration}")
        if self.failed:
            raise DeviceLostError(f"gpu {self.index} has been lost")
        with self.compute.request() as req:
            yield req
            start = self.env.now
            yield self.env.timeout(self.spec.kernel_launch_overhead + duration)
            self._c_busy.value += self.env.now - start
        self._c_kernels.value += 1

    def dma_transfer(self, nbytes: int, direction: str, pinned: bool = True):
        """Process generator: move ``nbytes`` host<->device via a DMA engine.

        ``direction`` is ``"h2d"`` or ``"d2h"``.  Pageable transfers run at
        the lower pageable bandwidth (modelled as a slowdown factor on the
        same link, since the staging copy shares the bus).
        """
        if direction == "h2d":
            link = self.h2d
        elif direction == "d2h":
            link = self.d2h
        else:
            raise ValueError(f"bad DMA direction {direction!r}")
        factor = 1.0 if pinned else (self.spec.pcie_pinned_bw /
                                     self.spec.pcie_pageable_bw)
        with self.dma.request() as req:
            yield req
            yield from link.transfer(int(nbytes * factor))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<GPUDevice {self.index} {self.spec.name}>"
