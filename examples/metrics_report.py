"""Run a multi-GPU matmul with full observability: counters + Chrome trace.

The runtime always records into its :class:`~repro.metrics.CounterRegistry`;
this example runs a tiled matmul on a 2-GPU node, prints the per-subsystem
metrics tables (cache hits/misses per device, bytes per physical link,
kernel launches), and writes ``matmul_trace.json`` — a Chrome trace-event
file with the counter snapshot embedded, loadable in ``chrome://tracing``
or https://ui.perfetto.dev.

Run:  python examples/metrics_report.py
"""

import json
from pathlib import Path

from repro.api import Program
from repro.apps.matmul import MatmulSize
from repro.apps.matmul.common import tile_start
from repro.apps.matmul.ompss import matmul_tile
from repro.bench.report import render_metrics
from repro.hardware import build_multi_gpu_node
from repro.runtime import RuntimeConfig, Tracer
from repro.sim import Environment


def main():
    size = MatmulSize(n=512, bs=128)
    tracer = Tracer()
    machine = build_multi_gpu_node(Environment(), num_gpus=2)
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

    # Per-subsystem metrics tables from one snapshot.
    snapshot = prog.metrics.snapshot()
    print(render_metrics(snapshot, title="software caches", prefix="cache."))
    print()
    print(render_metrics(snapshot, title="bytes per link", prefix="link."))
    print()
    print(render_metrics(snapshot, title="GPU managers", prefix="gpu."))

    # Chrome trace with the counters embedded under otherData.metrics.
    out = Path(__file__).parent / "matmul_trace.json"
    text = tracer.to_chrome(metrics=snapshot)
    json.loads(text)  # the exporter must emit valid JSON
    out.write_text(text)
    print(f"\nChrome trace written to {out} "
          f"({len(tracer.events)} spans; open in chrome://tracing)")


if __name__ == "__main__":
    main()
