"""MPI+CUDA Matrix Multiplication: the SUMMA algorithm (paper Section IV.A).

One MPI rank per cluster node, each driving its GPU explicitly (no overlap
techniques, matching the paper's baseline).  Tiles are distributed cyclically
over a near-square process grid; each SUMMA step broadcasts the k-th tile
column of A along process rows and the k-th tile row of B along process
columns, then every rank accumulates into its resident C tiles on the GPU.
"""

from __future__ import annotations

import numpy as np

from ...cuda import SGEMM
from ...hardware.cluster import Machine
from ...mpi import MPIWorld
from ..base import AppResult, make_contexts
from .common import MatmulSize, gflops, init_tile_value, tile_start

__all__ = ["run_mpi_cuda", "process_grid"]


def process_grid(p: int) -> tuple[int, int]:
    """Near-square grid factorization (pr >= pc, pr * pc == p)."""
    pc = int(np.sqrt(p))
    while p % pc != 0:
        pc -= 1
    return p // pc, pc


def run_mpi_cuda(machine: Machine, size: MatmulSize,
                 functional: bool = True, verify: bool = False) -> AppResult:
    env = machine.env
    world = MPIWorld(env, machine.network) if machine.is_cluster else None
    contexts = make_contexts(machine)
    p = machine.num_nodes
    pr, pc = process_grid(p)
    nt, bs, te = size.nt, size.bs, size.tile_elements
    tile_bytes = 4 * te

    ends: dict[int, float] = {}
    starts: dict[int, float] = {}
    gathered: dict[tuple[int, int], np.ndarray] = {}

    def owner(i: int, j: int) -> int:
        return (i % pr) * pc + (j % pc)

    def rank_proc(rank: int):
        ctx = contexts[rank]
        pi, pj = divmod(rank, pc)
        my_rows = [i for i in range(nt) if i % pr == pi]
        my_cols = [j for j in range(nt) if j % pc == pj]

        # Each rank initializes and uploads its own tiles.
        local: dict[tuple[str, int, int], np.ndarray] = {}

        def make_tile(which, i, j):
            if not functional:
                return None
            return np.full(te, init_tile_value(which, i, j),
                           dtype=np.float32)

        c_tiles = {(i, j): make_tile("C", i, j)
                   for i in my_rows for j in my_cols}
        ctx.malloc(len(c_tiles) * tile_bytes          # resident C
                   + (len(my_rows) + len(my_cols)) * tile_bytes)  # panels
        for _ in c_tiles:
            yield ctx.memcpy(tile_bytes, "h2d")
        if world is not None:
            yield from world.comm(rank).Barrier()
        starts[rank] = env.now

        for k in range(nt):
            # --- distribute the A tile-column k along process rows -------
            a_panel: dict[int, np.ndarray] = {}
            for i in my_rows:
                src = owner(i, k)
                if src == rank:
                    a_panel[i] = make_tile("A", i, k)
                    # Blocking sends: the baseline implements no
                    # communication/computation overlap (paper IV.A.2).
                    for peer_pj in range(pc):
                        peer = pi * pc + peer_pj
                        if peer != rank:
                            yield from world.comm(rank).Send(
                                a_panel[i], tile_bytes, peer, tag=k * nt + i)
                else:
                    a_panel[i] = yield from world.comm(rank).Recv(
                        source=src, tag=k * nt + i)
            # --- distribute the B tile-row k along process columns -------
            b_panel: dict[int, np.ndarray] = {}
            for j in my_cols:
                src = owner(k, j)
                if src == rank:
                    b_panel[j] = make_tile("B", k, j)
                    for peer_pi in range(pr):
                        peer = peer_pi * pc + pj
                        if peer != rank:
                            yield from world.comm(rank).Send(
                                b_panel[j], tile_bytes, peer,
                                tag=nt * nt + k * nt + j)
                else:
                    b_panel[j] = yield from world.comm(rank).Recv(
                        source=src, tag=nt * nt + k * nt + j)
            # --- upload panels, accumulate into resident C tiles ----------
            for i in my_rows:
                yield ctx.memcpy(tile_bytes, "h2d")
            for j in my_cols:
                yield ctx.memcpy(tile_bytes, "h2d")
            for i in my_rows:
                for j in my_cols:
                    func_args = ()
                    if functional:
                        func_args = (a_panel[i], b_panel[j],
                                     c_tiles[(i, j)], bs, bs, bs)
                    yield ctx.launch(SGEMM, func_args=func_args,
                                     m=bs, n=bs, k=bs)
            yield ctx.synchronize()

        # Results back to the host.
        for _ in c_tiles:
            yield ctx.memcpy(tile_bytes, "d2h")
        if world is not None:
            yield from world.comm(rank).Barrier()
        ends[rank] = env.now
        if functional:
            gathered.update(c_tiles)

    procs = [env.process(rank_proc(r)) for r in range(p)]
    env.run(until=env.all_of(procs))
    elapsed = max(ends.values()) - min(starts.values())

    output = None
    if verify and functional:
        c = np.empty(size.elements, dtype=np.float32)
        for (i, j), tile in gathered.items():
            s = tile_start(size, i, j)
            c[s:s + te] = tile
        output = {"c": c}
    return AppResult(
        name="matmul", version="mpi_cuda", makespan=elapsed,
        metric=gflops(size, elapsed), metric_unit="GFLOP/s",
        stats={"messages": env.metrics.value("mpi.messages"),
               "net_bytes": env.metrics.value("mpi.bytes")},
        output=output,
    )
