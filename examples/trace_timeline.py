"""Tracing an execution and exporting a Paraver timeline.

Nanos++ executions at BSC are habitually inspected with Paraver; the
runtime's tracer records the same span categories (tasks per execution
place, kernels, transfers per link, cluster control messages) and exports a
minimal ``.prv``.  This example runs a small multi-GPU matmul with tracing
on, prints per-place utilization, and writes ``matmul.prv``.

Run:  python examples/trace_timeline.py
"""

from pathlib import Path

from repro.apps.matmul import MatmulSize, run_ompss
from repro.hardware import build_multi_gpu_node
from repro.runtime import RuntimeConfig, Tracer
from repro.sim import Environment


def main():
    from repro.api import Program
    from repro.apps.matmul.ompss import matmul_tile
    from repro.apps.matmul.common import tile_start

    size = MatmulSize(n=512, bs=128)
    env = Environment()
    tracer = Tracer()
    machine = build_multi_gpu_node(env, num_gpus=2)
    prog = Program(machine,
                   RuntimeConfig(scheduler="affinity", functional=False),
                   subscribers=(tracer,))

    a = prog.array("A", size.elements)
    b = prog.array("B", size.elements)
    c = prog.array("C", size.elements)
    te, nt, bs = size.tile_elements, size.nt, size.bs

    def tile(h, i, j):
        s = tile_start(size, i, j)
        return h[s:s + te]

    def main_program():
        for i in range(nt):
            for j in range(nt):
                for k in range(nt):
                    matmul_tile(tile(a, i, k), tile(b, k, j),
                                tile(c, i, j), bs, bs, bs)
        yield from prog.taskwait(noflush=True)

    makespan = prog.run(main_program())

    print(f"matmul {size.n}x{size.n}, {nt ** 3} tasks, "
          f"{makespan * 1e3:.2f} ms simulated\n")
    print(f"{'place':14s} {'spans':>6s} {'busy ms':>8s} {'util':>6s}")
    for place in tracer.places():
        spans = len(tracer.timeline(place))
        busy = tracer.busy_time(place)
        util = tracer.utilization(place, makespan)
        print(f"{place:14s} {spans:6d} {busy * 1e3:8.2f} {util:6.1%}")

    out = Path(__file__).parent / "matmul.prv"
    out.write_text(tracer.to_paraver())
    print(f"\nParaver trace written to {out} "
          f"({len(tracer.events)} records)")


if __name__ == "__main__":
    main()
