"""Shared pieces of the Perlin Noise image filter.

The paper filters a 1024x1024 image, comparing a *Flush* variant (the image
returns to host memory after every step — as when a CPU stage consumes each
frame) with a *NoFlush* variant (frames stay on the GPU, as when Perlin is
one filter in an all-GPU pipeline).

The functional body is a real 2D gradient (Perlin) noise, vectorized with
NumPy, evaluated per row-block; successive steps vary the ``z`` (time)
offset, so every frame writes every pixel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PerlinSize", "perlin_block", "serial_perlin", "mpixels_per_s",
           "TEST_PERLIN", "PAPER_PERLIN", "FLOPS_PER_PIXEL"]

#: Arithmetic intensity of the kernel (for the GPU cost model): gradient
#: hashes, fades and lerps per pixel.
FLOPS_PER_PIXEL = 220.0


@dataclass(frozen=True)
class PerlinSize:
    """Image of height x width pixels, tasks of rows_per_task rows,
    ``steps`` filter applications."""

    height: int
    width: int
    rows_per_task: int
    steps: int = 4
    #: noise feature size in pixels.
    scale: float = 64.0

    def __post_init__(self):
        if self.height % self.rows_per_task != 0:
            raise ValueError(
                f"height {self.height} not a multiple of rows_per_task "
                f"{self.rows_per_task}"
            )

    @property
    def blocks(self) -> int:
        return self.height // self.rows_per_task

    @property
    def pixels(self) -> int:
        return self.height * self.width

    @property
    def block_elements(self) -> int:
        return self.rows_per_task * self.width


TEST_PERLIN = PerlinSize(height=32, width=32, rows_per_task=8, steps=2,
                         scale=8.0)
#: The paper's 1024x1024 image (Section IV.A.2).
PAPER_PERLIN = PerlinSize(height=1024, width=1024, rows_per_task=64,
                          steps=16)

# The Perlin permutation table: a shuffle of 0..255, doubled so a hash
# never wraps.  It is ``np.random.default_rng(20120529).permutation(256)``
# (IPDPS 2012 vintage), pinned so that importing an app does not load
# numpy.random, and through it OpenSSL.
_PERM_HALF = (
    81, 16, 175, 186, 191, 84, 106, 87, 91, 0, 22, 195, 242, 148, 12, 121,
    5, 48, 204, 134, 133, 180, 99, 223, 205, 172, 154, 221, 224, 78, 164,
    30, 7, 19, 187, 131, 11, 142, 126, 222, 194, 74, 160, 196, 231, 6, 178,
    236, 41, 112, 105, 29, 80, 185, 120, 32, 94, 162, 168, 247, 237, 230,
    141, 88, 130, 122, 201, 163, 96, 227, 109, 233, 59, 210, 56, 113, 4, 23,
    54, 24, 215, 17, 50, 15, 235, 252, 82, 161, 229, 217, 104, 146, 220,
    241, 86, 245, 152, 190, 182, 20, 232, 64, 51, 43, 90, 156, 189, 240,
    244, 57, 69, 169, 238, 173, 183, 38, 44, 166, 107, 243, 79, 71, 181,
    246, 3, 9, 85, 239, 98, 101, 165, 37, 137, 116, 108, 174, 216, 123, 157,
    213, 250, 72, 70, 95, 18, 188, 214, 92, 151, 202, 63, 139, 118, 114, 61,
    150, 193, 251, 248, 25, 143, 35, 211, 176, 192, 207, 129, 228, 206, 226,
    153, 177, 124, 199, 254, 249, 209, 75, 127, 73, 102, 135, 110, 197, 62,
    103, 117, 47, 144, 219, 13, 60, 170, 55, 40, 76, 200, 132, 10, 218, 225,
    53, 179, 138, 125, 21, 36, 46, 198, 26, 68, 253, 28, 42, 89, 97, 184,
    208, 52, 115, 155, 111, 234, 93, 149, 158, 49, 45, 2, 255, 128, 145, 31,
    77, 100, 171, 14, 167, 27, 39, 119, 34, 65, 1, 8, 212, 33, 136, 66, 67,
    83, 140, 58, 159, 203, 147,
)
_PERM = np.array(_PERM_HALF + _PERM_HALF, dtype=np.int64)


def _fade(t: np.ndarray) -> np.ndarray:
    return t * t * t * (t * (t * 6 - 15) + 10)


def _grad(h: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """2D gradient selection from the low 3 bits of the hash."""
    h = h & 7
    u = np.where(h < 4, x, y)
    v = np.where(h < 4, y, x)
    return (np.where(h & 1, -u, u) + np.where(h & 2, -2.0 * v, 2.0 * v))


def perlin_block(row0: int, rows: int, width: int, z: float,
                 scale: float) -> np.ndarray:
    """Perlin noise values for image rows [row0, row0+rows), flattened."""
    ys = (np.arange(row0, row0 + rows, dtype=np.float64) / scale + z)
    xs = np.arange(width, dtype=np.float64) / scale + 0.5 * z
    gx, gy = np.meshgrid(xs, ys)
    x0 = np.floor(gx).astype(np.int64)
    y0 = np.floor(gy).astype(np.int64)
    fx = gx - x0
    fy = gy - y0
    x0 &= 255
    y0 &= 255
    u = _fade(fx)
    v = _fade(fy)
    aa = _PERM[_PERM[x0] + y0]
    ab = _PERM[_PERM[x0] + y0 + 1]
    ba = _PERM[_PERM[x0 + 1] + y0]
    bb = _PERM[_PERM[x0 + 1] + y0 + 1]
    n00 = _grad(aa, fx, fy)
    n10 = _grad(ba, fx - 1, fy)
    n01 = _grad(ab, fx, fy - 1)
    n11 = _grad(bb, fx - 1, fy - 1)
    nx0 = n00 + u * (n10 - n00)
    nx1 = n01 + u * (n11 - n01)
    return (nx0 + v * (nx1 - nx0)).astype(np.float32).reshape(-1)


def serial_perlin(size: PerlinSize) -> np.ndarray:
    """Reference: the image after the final step."""
    out = np.empty(size.pixels, dtype=np.float32)
    for step in range(size.steps):
        z = float(step)
        for b in range(size.blocks):
            row0 = b * size.rows_per_task
            start = row0 * size.width
            out[start:start + size.block_elements] = perlin_block(
                row0, size.rows_per_task, size.width, z, size.scale)
    return out


def mpixels_per_s(size: PerlinSize, seconds: float) -> float:
    return size.pixels * size.steps / seconds / 1e6
