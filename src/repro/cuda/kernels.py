"""Kernel specs and cost models.

The paper keeps kernel *code* out of scope ("the generation of the kernels
themselves ... must be provided by the user"); what the runtime needs is when
a kernel occupies a GPU and for how long.  Each :class:`KernelSpec` carries

* a **cost model** — seconds of GPU occupancy as a function of the device
  spec and the launch arguments, calibrated per kernel class (compute-bound
  sgemm, bandwidth-bound STREAM ops, arithmetic-heavy Perlin, O(N^2) N-Body);
* an optional **functional body** — a NumPy implementation run in functional
  mode so results can be checked against serial references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..hardware.specs import GPUSpec

__all__ = [
    "KernelSpec",
    "gemm_cost",
    "streaming_cost",
    "arithmetic_cost",
    "nbody_cost",
]


def gemm_cost(spec: GPUSpec, m: int, n: int, k: int) -> float:
    """Seconds for a single-precision matrix-multiply-accumulate tile."""
    flops = 2.0 * m * n * k
    return flops / (spec.sgemm_gflops * 1e9)


def streaming_cost(spec: GPUSpec, bytes_touched: int) -> float:
    """Seconds for a memory-bandwidth-bound kernel (STREAM copy/scale/...)."""
    return bytes_touched / spec.effective_mem_bandwidth


def arithmetic_cost(spec: GPUSpec, ops: float, efficiency: float = 0.25) -> float:
    """Seconds for a compute kernel with scalar-ish arithmetic (Perlin)."""
    return ops / (spec.peak_sp_gflops * 1e9 * efficiency)


def nbody_cost(spec: GPUSpec, n_total: int, n_block: int,
               flops_per_interaction: float = 20.0,
               efficiency: float = 0.45) -> float:
    """Seconds to update ``n_block`` bodies against all ``n_total`` bodies.

    The NVIDIA demo kernel the paper uses achieves a large fraction of peak;
    20 flops/interaction is the conventional accounting for it.
    """
    flops = flops_per_interaction * n_total * n_block
    return flops / (spec.peak_sp_gflops * 1e9 * efficiency)


@dataclass(frozen=True)
class KernelSpec:
    """A named GPU kernel: cost model plus optional functional body."""

    name: str
    #: (gpu_spec, launch kwargs) -> seconds of compute-engine occupancy.
    cost: Callable[..., float]
    #: Functional body: called with the task's buffer views + scalar args.
    func: Optional[Callable[..., None]] = None

    def duration(self, spec: GPUSpec, **kwargs) -> float:
        d = self.cost(spec, **kwargs)
        if d < 0:
            raise ValueError(f"kernel {self.name!r} computed negative cost")
        return d

