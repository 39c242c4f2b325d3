"""Simulated CUDA layer: contexts, streams, kernels, CUBLAS.

Substitutes NVIDIA CUDA 3.2 + CUBLAS (see DESIGN.md section 2): timing comes
from calibrated cost models over the simulated GPU engines; functional-mode
kernels execute real NumPy math for correctness testing.  A launch names
its :class:`KernelSpec` directly, and every copy or launch returns its
completion event, which stands in for a CUDA event recorded after it.
"""

from .api import CudaContext, CudaError
from .cublas import SGEMM, sgemm_func
from .kernels import (
    KernelSpec,
    arithmetic_cost,
    gemm_cost,
    nbody_cost,
    streaming_cost,
)
from .stream import Stream

__all__ = [
    "CudaContext",
    "CudaError",
    "Stream",
    "KernelSpec",
    "gemm_cost",
    "streaming_cost",
    "arithmetic_cost",
    "nbody_cost",
    "SGEMM",
    "sgemm_func",
]
