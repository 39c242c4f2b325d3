"""Shared pieces of the STREAM benchmark (paper Figure 2).

Three double-precision vectors and four kernels per iteration — copy
(c = a), scale (b = s*c), add (c = a + b), triad (a = b + s*c) — blocked so
each task covers BSIZE elements.  The paper allocates 768 MB per GPU; the
headline metric is aggregate memory bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StreamSize", "SCALAR", "serial_stream", "bandwidth_gbs",
           "stream_bytes", "TEST_STREAM", "paper_stream_size"]

#: STREAM's scale factor (from the original source).
SCALAR = 3.0

#: Bytes moved per element per iteration: copy 2, scale 2, add 3, triad 3
#: accesses of 8 bytes each.
_ACCESSES_PER_ELEMENT = 10


@dataclass(frozen=True)
class StreamSize:
    """Problem size: vectors of n float64 elements, blocks of bsize."""

    n: int
    bsize: int
    ntimes: int = 4

    def __post_init__(self):
        if self.n % self.bsize != 0:
            raise ValueError(f"vector size {self.n} not a multiple of "
                             f"block size {self.bsize}")

    @property
    def vector_bytes(self) -> int:
        return 8 * self.n


TEST_STREAM = StreamSize(n=64, bsize=16, ntimes=2)


def paper_stream_size(num_gpus: int, ntimes: int = 4) -> StreamSize:
    """768 MB per GPU across the three vectors (Section IV.A.2)."""
    per_gpu_bytes = 768 * 1024 * 1024
    n = num_gpus * per_gpu_bytes // (3 * 8)
    blocks_per_gpu = 8
    bsize = n // (num_gpus * blocks_per_gpu)
    n = bsize * num_gpus * blocks_per_gpu
    return StreamSize(n=n, bsize=bsize, ntimes=ntimes)


def serial_stream(size: StreamSize, a: np.ndarray, b: np.ndarray,
                  c: np.ndarray) -> None:
    """Reference semantics of ``ntimes`` STREAM iterations (in place)."""
    for _ in range(size.ntimes):
        c[:] = a
        b[:] = SCALAR * c
        c[:] = a + b
        a[:] = b + SCALAR * c


def stream_bytes(size: StreamSize) -> int:
    """Total bytes moved by the whole run (for the bandwidth metric)."""
    return _ACCESSES_PER_ELEMENT * 8 * size.n * size.ntimes


def bandwidth_gbs(size: StreamSize, seconds: float) -> float:
    return stream_bytes(size) / seconds / 1e9
