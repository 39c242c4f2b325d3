"""Shared pieces of the Jacobi stencil application (halo exchange).

The five-point Jacobi relaxation is the canonical halo-exchange workload
the paper's dense apps never approximate: each row block only needs its
neighbours' *boundary rows*, so the dependency graph is a nearest-
neighbour chain per iteration — wide, shallow, and communication-bound
at the block seams.  It is the second installment of the "more apps"
roadmap item (ROADMAP item 3) and one of the anchor shapes for the
dagfuzz profiles.

Storage is a flat row-major float32 grid of ``n x n`` points.  The grid
is decomposed into ``nb`` row blocks; each block is *three* regions —
``[first row][interior rows][last row]`` — so a neighbour's halo read
names the exact boundary-row region the producer wrote (the memory model
only supports equal-or-disjoint region overlap; carving the boundary
rows out as their own regions is what makes halo exchange expressible).
Boundary conditions are Dirichlet: the outer ring of the grid is copied,
never updated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["JacobiSize", "build_grid", "jacobi_reference", "mcells",
           "PAPER_JACOBI", "TEST_JACOBI"]


@dataclass(frozen=True)
class JacobiSize:
    """Problem size: n x n grid, nb row blocks, iters sweeps."""

    n: int
    nb: int
    iters: int

    def __post_init__(self):
        if self.nb < 2:
            raise ValueError("need at least 2 row blocks (halo exchange)")
        if self.n % self.nb != 0:
            raise ValueError(f"grid size {self.n} not a multiple of "
                             f"block count {self.nb}")
        if self.n // self.nb < 3:
            raise ValueError("blocks need >= 3 rows (top/interior/bottom "
                             "regions)")
        if self.iters < 1:
            raise ValueError("need at least one iteration")

    @property
    def rows(self) -> int:
        """Rows per block."""
        return self.n // self.nb

    @property
    def elements(self) -> int:
        return self.n * self.n

    @property
    def points(self) -> float:
        """Stencil point-updates over the whole run."""
        return float(self.n * self.n * self.iters)


#: Cluster-scale benchmark size (row blocks sized for 8-node runs).
PAPER_JACOBI = JacobiSize(n=8192, nb=16, iters=8)
#: Small functional-mode size for correctness tests.
TEST_JACOBI = JacobiSize(n=32, nb=4, iters=3)


def build_grid(size: JacobiSize) -> np.ndarray:
    """Deterministic initial grid (flat): a ragged interference pattern
    with a hot west edge, so every sweep moves real information."""
    n = size.n
    idx = np.arange(n, dtype=np.float32)
    g = ((np.add.outer(idx * 13.0, idx * 7.0) % 41.0)
         / np.float32(41.0)).astype(np.float32)
    g[:, 0] = np.float32(1.0)
    return g.ravel()


def jacobi_step(g: np.ndarray) -> np.ndarray:
    """One sweep on a 2-D grid — THE stencil expression.

    The OmpSs block kernels compute the identical float32 expression per
    element, so blocked and whole-grid sweeps agree bit for bit.
    """
    new = g.copy()
    up, dn = g[:-2, 1:-1], g[2:, 1:-1]
    lf, rt = g[1:-1, :-2], g[1:-1, 2:]
    new[1:-1, 1:-1] = ((up + dn) + (lf + rt)) * np.float32(0.25)
    return new


def jacobi_reference(size: JacobiSize, flat: np.ndarray) -> np.ndarray:
    """``iters`` whole-grid sweeps over a flat grid (returns flat)."""
    g = flat.reshape(size.n, size.n).copy()
    for _ in range(size.iters):
        g = jacobi_step(g)
    return g.ravel()


def mcells(size: JacobiSize, seconds: float) -> float:
    """Headline metric: stencil point-updates per second, in millions."""
    return size.points / seconds / 1e6
