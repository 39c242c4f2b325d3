"""Simulated CUDA driver API for one GPU.

This is the substrate the Nanos++ GPU layer (and the CUDA/MPI+CUDA baseline
applications) drive: synchronous and asynchronous memcpys, kernel launches on
streams, pinned host allocation (``cudaMallocHost``) from the node's
pre-registered pool, and device/stream synchronization.

Fidelity notes (paper Section III.D.2):

* async copies overlap with compute only when the host side is page-locked;
  pageable copies run at lower bandwidth and serialize on the null stream;
* pinned staging requires an extra host-memory copy into the intermediate
  buffer — the paper's reason why overlap "may not be worth enabling".
"""

from __future__ import annotations

from typing import Callable, Optional

from ..hardware.gpu import GPUDevice
from ..hardware.node import Node
from ..memory.allocator import BytePool
from ..sim import Environment, Event, Process
from .kernels import KernelSpec
from .stream import Stream

__all__ = ["CudaContext", "CudaError"]


class CudaError(Exception):
    """Illegal use of the simulated CUDA API."""


def _then(operation, hook: Callable, *args):
    """A stream operation: ``operation``'s device work, then ``hook(*args)``
    (a completion hook, or a kernel's functional body)."""
    yield from operation
    hook(*args)


class CudaContext:
    """Driver context bound to one GPU of one node."""

    def __init__(self, env: Environment, gpu: GPUDevice, node: Node,
                 jitter: float = 0.0):
        self.env = env
        self.gpu = gpu
        self.node = node
        #: relative kernel-duration variability (real launches are not
        #: perfectly repeatable; a zero-variance simulation produces
        #: artificial lock-step schedules).  Deterministic per launch index.
        self.jitter = jitter
        self._lcg = (gpu.index * 2654435761 + node.index * 40503 + 12345) \
            & 0xFFFFFFFF
        self.null_stream = Stream(
            env, name=f"n{node.index}.gpu{gpu.index}.null")
        self._streams: list[Stream] = [self.null_stream]
        self.pinned_pool = BytePool(
            env, node.spec.pinned_pool_capacity,
            name=f"node{node.index}.pinned",
        )
        self.mem_allocated = 0

    def _jitter_factor(self) -> float:
        """Deterministic multiplicative noise in [1-j, 1+j]."""
        if self.jitter <= 0:
            return 1.0
        self._lcg = (self._lcg * 1664525 + 1013904223) & 0xFFFFFFFF
        u = self._lcg / 0xFFFFFFFF  # [0, 1]
        return 1.0 + self.jitter * (2.0 * u - 1.0)

    # -- streams ----------------------------------------------------------
    def create_stream(self) -> Stream:
        s = Stream(
            self.env,
            name=f"n{self.node.index}.gpu{self.gpu.index}"
                 f".s{len(self._streams)}")
        self._streams.append(s)
        return s

    def synchronize(self) -> Event:
        """cudaDeviceSynchronize: completion of all streams' pending work."""
        return self.env.all_of([s.synchronize() for s in self._streams])

    # -- memory ------------------------------------------------------------
    def malloc(self, nbytes: int) -> None:
        """Account a device allocation (capacity checked)."""
        if self.mem_allocated + nbytes > self.gpu.mem_capacity:
            raise CudaError(
                f"out of device memory on gpu{self.gpu.index}: "
                f"{self.mem_allocated + nbytes} > {self.gpu.mem_capacity}"
            )
        self.mem_allocated += nbytes

    def malloc_host(self, nbytes: int) -> Event:
        """cudaMallocHost: lease page-locked memory from the startup pool."""
        return self.pinned_pool.acquire(nbytes)

    # -- transfers -----------------------------------------------------------
    def memcpy(self, nbytes: int, direction: str, pinned: bool = False,
               stream: Optional[Stream] = None,
               on_complete: Optional[Callable[[], None]] = None) -> Event:
        """Enqueue a host<->device copy; returns its completion event.

        Without an explicit ``stream`` the copy goes to the null stream
        (serializing with kernels, as synchronous ``cudaMemcpy`` does).
        """
        op = self.gpu.dma_transfer(nbytes, direction, pinned=pinned)
        if on_complete is not None:
            op = _then(op, on_complete)
        return (stream or self.null_stream).enqueue(op)

    def staging_copy(self, nbytes: int) -> Event:
        """The host-side copy into/out of a pinned intermediate buffer."""
        return Process(self.env, self.node.host_copy(nbytes))

    # -- kernels ----------------------------------------------------------------
    def launch(self, spec: KernelSpec,
               stream: Optional[Stream] = None,
               func_args: tuple = (),
               on_complete: Optional[Callable[[], None]] = None,
               **cost_kwargs) -> Event:
        """Enqueue a kernel launch; returns its completion event.

        ``cost_kwargs`` feed the kernel's cost model; ``func_args`` are passed
        to the functional body (if any) when the kernel "executes".
        """
        duration = spec.duration(self.gpu.spec, **cost_kwargs) \
            * self._jitter_factor()
        op = self.gpu.run_kernel(duration)
        if spec.func is not None and func_args:
            op = _then(op, spec.func, *func_args)
        if on_complete is not None:
            op = _then(op, on_complete)
        return (stream or self.null_stream).enqueue(op)
