"""Scenario table for the golden-makespan determinism tests.

Each scenario runs one figure-style configuration at a reduced problem size
and returns the **simulated** makespan in seconds.  The goldens recorded in
``test_golden_makespan.py`` were captured from the seed implementation of the
queues/caches/dependency graph; any data-structure swap in the runtime must
keep them bit-identical (the structures may get faster, but never reorder
simulated events).

Each scenario's whole counter record is pinned too: ``golden_snapshots.json``
holds, per scenario, the list of ``rt.metrics.snapshot()`` of every runtime
it builds (keys sorted), and ``test_every_subscriber_on_keeps_makespan_and_
counters`` compares it whole, printing a key-level diff on a mismatch.
Beside the snapshots sits the digest of the scenario's probe stream (its
:class:`~repro.runtime.probes.JsonLinesRecorder` output with the tracer and
the sanitizer subscribed): a reordered ``dep_arc`` or successor list can
keep every counter and makespan, but not the stream.

Run ``PYTHONPATH=src python -m tests.bench.golden_scenarios`` to (re)print
the golden makespan dict and rewrite ``golden_snapshots.json``.  The re-pin
rule: only a change that *intentionally* moves simulated time or a counter
re-pins, it re-pins exactly the goldens it moves, and it lists the moved
keys (and makespans) in CHANGES.md and the commit message.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

from repro.apps import cholesky, matmul, nbody, perlin, stream
from repro.bench.harness import CLUSTER_BEST, fresh_cluster, fresh_multi_gpu
from repro.cuda import KernelSpec
from repro.runtime import Access, Direction, Runtime, Task, probes
from repro.runtime import trace
from repro.runtime.config import RuntimeConfig
from repro.sanitizer import install as install_sanitizer

__all__ = ["SCENARIOS", "SNAPSHOTS_PATH", "Snapshots", "snapshot_diff",
           "run_watched", "stream_digest"]

SNAPSHOTS_PATH = Path(__file__).with_name("golden_snapshots.json")

# Big enough that queues/caches/graph see real churn (hundreds of tasks,
# evictions, steals), small enough that the whole table runs in seconds.
_MM = matmul.MatmulSize(n=512, bs=64)          # 8x8 tiles -> 512 mult tasks
_ST = stream.StreamSize(n=4096, bsize=256, ntimes=3)
_PL = perlin.PerlinSize(height=128, width=128, rows_per_task=8, steps=3)
_NB = nbody.NBodySize(n=1024, blocks=8, iters=3)
_CH = cholesky.CholeskySize(n=8192, bs=512)    # 16x16 tiles -> 816 tasks
# comm_bench --quick's STREAM: 3 x 16 blocks of 8 MB against a cache squeezed
# to 2.5% of device memory, so every iteration evicts (48 per GPU).
_ST_THRASH = stream.StreamSize(n=2 ** 24, bsize=2 ** 20, ntimes=4)


def _mgpu(policy: str, sched: str) -> RuntimeConfig:
    return RuntimeConfig(functional=False, cache_policy=policy,
                         scheduler=sched)


def _cluster(**overrides) -> RuntimeConfig:
    params = dict(CLUSTER_BEST)
    params.update(overrides)
    return RuntimeConfig(**params)


def _cholesky_mgpu(policy: str, sched: str) -> float:
    """The fan-in DAG that separates the locality-placing policies: steals
    and priority order."""
    config = RuntimeConfig(functional=False, overlap=True, prefetch=True,
                           cache_policy=policy, scheduler=sched)
    return cholesky.run_ompss(fresh_multi_gpu(4), _CH, config=config).makespan


def _nested_cluster(scheduler: str = "affinity") -> float:
    """Decomposing parents on a 4-node cluster: 3 dependent waves of 24
    cuda parents dealt across the nodes, each splitting its block over six
    smp children plus a fold on the image that runs it — the
    ``Image._account_child`` bookkeeping and wake path that no app scenario
    reaches.  Parents are cuda so they park a GPU manager, not the SMP
    workers their children need."""
    rt = Runtime(fresh_cluster(4),
                 _cluster(slave_to_slave=True, presend=2,
                          scheduler=scheduler))
    nparents, nparts, elems = 24, 6, 4096
    blocks = [rt.register_array(f"blk{i}", nparts * elems)
              for i in range(nparents)]
    kernel = KernelSpec(name="touch", cost=lambda spec: 2e-4)

    def children_of(obj, parts):
        def make():
            fills = [Task(name=f"{obj.name}.fill{j}", device="smp",
                          smp_cost=5e-5 * (1 + j % 3),
                          accesses=(Access(part, Direction.INOUT),))
                     for j, part in enumerate(parts)]
            fold = Task(name=f"{obj.name}.fold", device="smp", smp_cost=4e-5,
                        accesses=tuple(Access(part, Direction.IN)
                                       for part in parts[1:])
                        + (Access(parts[0], Direction.INOUT),))
            return fills + [fold]
        return make

    def main():
        for wave in range(3):
            for i, obj in enumerate(blocks):
                parts = [obj.region(j * elems, elems) for j in range(nparts)]
                rt.submit(Task(
                    name=f"p{wave}.{i}", device="cuda", kernel=kernel,
                    accesses=tuple(Access(part, Direction.INOUT)
                                   for part in parts),
                    subtasks=children_of(obj, parts)))
        yield from rt.taskwait()

    return rt.run_main(main())


SCENARIOS = {
    # -- multi-GPU node: every cache policy x scheduler family -------------
    "matmul-2gpu-nocache-bf": lambda: matmul.run_ompss(
        fresh_multi_gpu(2), _MM, config=_mgpu("nocache", "bf")).makespan,
    "matmul-2gpu-wt-default": lambda: matmul.run_ompss(
        fresh_multi_gpu(2), _MM, config=_mgpu("wt", "default")).makespan,
    "matmul-2gpu-wb-affinity": lambda: matmul.run_ompss(
        fresh_multi_gpu(2), _MM, config=_mgpu("wb", "affinity")).makespan,
    "matmul-4gpu-wb-affinity": lambda: matmul.run_ompss(
        fresh_multi_gpu(4), _MM, config=_mgpu("wb", "affinity")).makespan,
    "stream-2gpu-wb-default": lambda: stream.run_ompss(
        fresh_multi_gpu(2), _ST, config=_mgpu("wb", "default")).makespan,
    "perlin-2gpu-wb-affinity-flush": lambda: perlin.run_ompss(
        fresh_multi_gpu(2), _PL, config=_mgpu("wb", "affinity"),
        flush=True).makespan,
    "nbody-2gpu-wt-bf": lambda: nbody.run_ompss(
        fresh_multi_gpu(2), _NB, config=_mgpu("wt", "bf")).makespan,
    # -- GPU cluster: both wire routings, presend window on/off ------------
    "matmul-2node-stos-ps4": lambda: matmul.run_ompss(
        fresh_cluster(2), _MM,
        config=_cluster(slave_to_slave=True, presend=4),
        init="smp").makespan,
    "matmul-4node-mtos-ps0": lambda: matmul.run_ompss(
        fresh_cluster(4), _MM,
        config=_cluster(slave_to_slave=False, presend=0),
        init="seq").makespan,
    "stream-2node-stos-ps4": lambda: stream.run_ompss(
        fresh_cluster(2), _ST,
        config=_cluster(slave_to_slave=True, presend=4)).makespan,
    "nbody-4node-stos-ps1": lambda: nbody.run_ompss(
        fresh_cluster(4), _NB,
        config=_cluster(slave_to_slave=True, presend=1)).makespan,
    # -- GPU cluster + nested decomposition (children local to the image) --
    "nested-4node-stos-ps2": _nested_cluster,
    # -- the policies the paper goldens above never select ------------------
    "cholesky-4gpu-wb-cp": lambda: _cholesky_mgpu("wb", "cp"),
    "cholesky-4gpu-wt-ws": lambda: _cholesky_mgpu("wt", "ws"),
    # a dozen policy switches with the prestage lookahead (peek_for) armed
    "cholesky-4node-adaptive-ps2-pd2": lambda: cholesky.run_ompss(
        fresh_cluster(4), _CH,
        config=_cluster(scheduler="adaptive", presend=2,
                        presend_depth=2)).makespan,
    # ``default`` releasing mixed smp/cuda work on a cluster (wake order)
    "nested-4node-default": lambda: _nested_cluster("default"),
    # -- the static datamove flags (docs/DATAMOVE.md) -----------------------
    # 96 elided write-backs + cost-ordered victims on a thrashing cache
    "stream-4gpu-thrash-elide-cae": lambda: stream.run_ompss(
        fresh_multi_gpu(4), _ST_THRASH,
        config=RuntimeConfig(functional=False, cache_policy="wb",
                             scheduler="affinity", overlap=True,
                             prefetch=True, gpu_cache_fraction=0.025,
                             wb_elision=True,
                             cost_aware_eviction=True)).makespan,
    # matmul-4node-mtos-ps0 with the prestage lookahead as its only change
    "matmul-4node-mtos-ps0-pd4": lambda: matmul.run_ompss(
        fresh_cluster(4), _MM,
        config=_cluster(slave_to_slave=False, presend=0, presend_depth=4),
        init="seq").makespan,
}


class Snapshots:
    """A subscriber to no point: keeps each runtime built while installed."""

    def __init__(self):
        self.runtimes = []

    def attach(self, runtime):
        self.runtimes.append(runtime)

    def taken(self) -> list:
        """Each runtime's snapshot in the pin file's form (a JSON round
        trip), minus the sanitizer's own counters, which exist only when
        it is subscribed."""
        return json.loads(json.dumps(
            [{k: v for k, v in rt.metrics.snapshot().items()
              if not k.startswith("sanitizer.")} for rt in self.runtimes]))


def stream_digest(text: str) -> dict:
    """sha256 and line count of a JsonLinesRecorder stream.  Task ids come
    from a process-global counter, so they are renumbered in first-seen
    order before hashing: the digest depends on the run alone."""
    tids: dict = {}

    def renumber(value):
        if isinstance(value, dict):
            value["task"] = tids.setdefault(value["task"], len(tids) + 1)
        elif isinstance(value, list):
            for v in value:
                renumber(v)

    sha = hashlib.sha256()
    lines = text.splitlines()
    for line in lines:
        record = json.loads(line)
        renumber(record["args"])
        sha.update(json.dumps(record).encode() + b"\n")
    return {"sha256": sha.hexdigest(), "lines": len(lines)}


def run_watched(run):
    """Run a scenario with every subscriber on (snapshots, tracer,
    sanitizer, probe recorder); returns ``(makespan, snapshots, tracer,
    stream text)``."""
    stream = io.StringIO()
    with probes.install(Snapshots()) as snapshots, \
            trace.install() as tracer, install_sanitizer(), \
            probes.install(probes.JsonLinesRecorder(stream)):
        makespan = run()
    return makespan, snapshots, tracer, stream.getvalue()


def snapshot_diff(pinned: list, taken: list) -> str:
    """Key-level diff of two snapshot lists: added, removed and changed
    keys (changed ones with both values), per runtime."""
    lines = []
    if len(pinned) != len(taken):
        lines.append(f"runtimes: pinned {len(pinned)}, now {len(taken)}")
    for i, (old, new) in enumerate(zip(pinned, taken)):
        for key in sorted(new.keys() - old.keys()):
            lines.append(f"runtime {i}: added {key} = {new[key]!r}")
        for key in sorted(old.keys() - new.keys()):
            lines.append(f"runtime {i}: removed {key} = {old[key]!r}")
        for key in sorted(old.keys() & new.keys()):
            if old[key] != new[key]:
                lines.append(f"runtime {i}: changed {key}: pinned "
                             f"{old[key]!r}, now {new[key]!r}")
    return "\n".join(lines)


if __name__ == "__main__":
    pins = {}
    print("GOLDEN_MAKESPANS = {")
    for name, run in SCENARIOS.items():
        with probes.install(Snapshots()) as plain:
            makespan = run()
        pins[name] = {"snapshots": plain.taken(),
                      "probe_stream": stream_digest(run_watched(run)[3])}
        print(f"    {name!r}: {makespan!r},")
    print("}")
    SNAPSHOTS_PATH.write_text(
        json.dumps(pins, indent=1, sort_keys=True) + "\n")
