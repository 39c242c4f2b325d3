"""Single-GPU CUDA N-Body (the NVIDIA demo structure, one device)."""

from __future__ import annotations

from ...cuda import KernelSpec, nbody_cost
from ...hardware.cluster import Machine
from ..base import AppResult, make_contexts
from .common import DT, NBodySize, gflops, initial_state, nbody_step_reference

__all__ = ["run_cuda"]


def run_cuda(machine: Machine, size: NBodySize,
             functional: bool = True, verify: bool = False) -> AppResult:
    env = machine.env
    ctx = make_contexts(machine)[0]
    state_bytes = 4 * size.elements

    pos = vel = None
    if functional:
        pos, vel = initial_state(size)

    holder = {"pos": pos}

    def body():
        holder["pos"] = nbody_step_reference(holder["pos"], vel, DT)

    kernel = KernelSpec(
        name="nbody_step",
        cost=lambda spec, n: nbody_cost(spec, n_total=n, n_block=n),
    )

    # pos in/out (ping-pong) + velocities resident on the device.
    ctx.malloc(3 * state_bytes)
    timings = {}

    def main():
        yield ctx.memcpy(state_bytes, "h2d")   # positions
        yield ctx.memcpy(state_bytes, "h2d")   # velocities
        timings["t0"] = env.now
        for _ in range(size.iters):
            yield ctx.launch(kernel, n=size.n)
            if functional:
                body()
        yield ctx.synchronize()
        timings["t1"] = env.now
        yield ctx.memcpy(state_bytes, "d2h")

    proc = env.process(main())
    env.run(until=proc)
    elapsed = timings["t1"] - timings["t0"]
    output = None
    if verify and functional:
        output = {"pos": holder["pos"], "vel": vel}
    return AppResult(
        name="nbody", version="cuda", makespan=elapsed,
        metric=gflops(size, elapsed), metric_unit="GFLOP/s",
        output=output,
    )
