"""Core hot-path microbenchmarks: queues, dependency graph, caches, one
end-to-end figure run.

Each structural benchmark times the *current* implementation against a
faithful replica of the seed (pre-overhaul) implementation, so the recorded
``speedup`` is the wall-clock win of the O(n^2) -> O(log n)/O(1) swaps at
that size.  Results land in ``BENCH_core.json``; future PRs are measured
against them.

Usage::

    PYTHONPATH=src python benchmarks/perf/core_bench.py            # full
    PYTHONPATH=src python benchmarks/perf/core_bench.py --smoke    # CI
    PYTHONPATH=src python benchmarks/perf/core_bench.py --out path.json

Smoke mode shrinks every size so the whole suite runs in a few seconds; it
exists to catch crashes and schema drift in CI, never to judge timing.
"""

from __future__ import annotations

import argparse
import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.apps import matmul
from repro.bench.harness import fresh_multi_gpu
from repro.cuda.kernels import KernelSpec
from repro.memory.cache import CacheCapacityError, SoftwareCache
from repro.memory.region import DataObject, PartialOverlapError, Region, relation
from repro.memory.space import DeviceSpace
from repro.runtime.config import RuntimeConfig
from repro.runtime.dependences import DependencyGraph
from repro.runtime.scheduler import Scheduler, make_scheduler
from repro.runtime.task import Access, Direction, Task, TaskState

SCHEMA = "repro.bench.core/v1"

_NULL_KERNEL = KernelSpec("bench.null", cost=lambda spec, **kw: 1e-6)


# ---------------------------------------------------------------------------
# Seed (pre-overhaul) replicas, kept verbatim-in-spirit as baselines
# ---------------------------------------------------------------------------

class SeedTaskQueue:
    """The seed ready queue: one deque, linear scan-and-delete per poll."""

    def __init__(self):
        self._q: deque = deque()

    def push(self, task) -> None:
        self._q.append(task)

    def pop_for(self, worker):
        for i, task in enumerate(self._q):
            if worker.accepts(task):
                del self._q[i]
                return task
        return None

    def __len__(self) -> int:
        return len(self._q)

    _size = property(__len__)   # the scheduler core's emptiness probe


@dataclass
class _SeedRegionState:
    last_writer: Optional[Task] = None
    readers_since_write: list = field(default_factory=list)


class SeedDependencyGraph:
    """The seed graph: list-scan arc dedup, linear shape validation."""

    def __init__(self):
        self._regions: dict = {}
        self._shapes: dict = {}

    def _check_shape(self, region: Region) -> None:
        seen = self._shapes.setdefault(region.obj.oid, [])
        for other in seen:
            if relation(region, other) == "partial":
                raise PartialOverlapError(region)
        seen.append(region)

    def _state(self, region: Region) -> _SeedRegionState:
        st = self._regions.get(region.key)
        if st is None:
            self._check_shape(region)
            st = _SeedRegionState()
            self._regions[region.key] = st
        return st

    @staticmethod
    def _add_arc(pred: Task, succ: Task) -> bool:
        if pred.state is TaskState.FINISHED or pred is succ:
            return False
        if succ in pred.successors:          # the O(successors) list scan
            return False
        pred.successors.append(succ)
        succ.pending_preds += 1
        return True

    def add_task(self, task: Task) -> bool:
        for acc in task.accesses:
            st = self._state(acc.region)
            if acc.direction.reads and st.last_writer is not None:
                self._add_arc(st.last_writer, task)
            if acc.direction.writes:
                if st.last_writer is not None:
                    self._add_arc(st.last_writer, task)
                for reader in st.readers_since_write:
                    self._add_arc(reader, task)
        for acc in task.accesses:
            st = self._state(acc.region)
            if acc.direction.writes:
                st.last_writer = task
                st.readers_since_write = []
            else:
                st.readers_since_write.append(task)
        if task.pending_preds == 0:
            task.state = TaskState.READY
            return True
        return False

    def task_finished(self, task: Task) -> list:
        task.state = TaskState.FINISHED
        newly_ready = []
        for succ in task.successors:
            succ.pending_preds -= 1
            if succ.pending_preds == 0 and succ.state is TaskState.CREATED:
                succ.state = TaskState.READY
                newly_ready.append(succ)
        return newly_ready


class SeedCache(SoftwareCache):
    """The current cache with the seed's sort-per-eviction victim search."""

    def choose_victims(self, nbytes_needed: int):
        if nbytes_needed <= self.bytes_free:
            return []
        victims, freed = [], 0
        need = nbytes_needed - self.bytes_free
        for ent in sorted(self._entries.values(), key=lambda e: e.last_use):
            if not ent.evictable:
                continue
            victims.append(ent)
            freed += ent.nbytes
            if freed >= need:
                return victims
        raise CacheCapacityError(nbytes_needed)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class _Worker:
    """Stub execution place (same accepts() contract as the runtime's)."""

    def __init__(self, kind: str):
        self.kind = kind
        self.node_index = 0
        self.space = object()

    def accepts(self, task) -> bool:
        if self.kind == "smp":
            return task.device == "smp"
        if self.kind == "gpu":
            return task.device == "cuda"
        return task.parent is None


def _queue_tasks(n: int) -> list[Task]:
    """A gpu-heavy ready stream: the seed queue's worst realistic case is an
    SMP worker scanning past a long cuda prefix on every poll."""
    tasks = []
    for i in range(n):
        if i % 10 < 9:
            tasks.append(Task(name="k", device="cuda", kernel=_NULL_KERNEL))
        else:
            tasks.append(Task(name="c", device="smp"))
    return tasks


def bench_scheduler(n: int) -> dict:
    """Submit ``n`` ready tasks, then drain via alternating worker polls."""
    smp, gpu = _Worker("smp"), _Worker("gpu")

    def drive(sched: Scheduler, tasks) -> float:
        t0 = time.perf_counter()
        for task in tasks:
            sched.submit(task)
        popped = 0
        while popped < len(tasks):
            task = sched.next_task(smp)
            if task is not None:
                popped += 1
            task = sched.next_task(gpu)
            if task is not None:
                popped += 1
        return time.perf_counter() - t0

    def bf() -> Scheduler:
        sched = make_scheduler("bf", lambda *a: None, None)
        sched.register_worker(smp)
        sched.register_worker(gpu)
        return sched

    elapsed = drive(bf(), _queue_tasks(n))
    seed = bf()
    seed.shared = SeedTaskQueue()
    seed_elapsed = drive(seed, _queue_tasks(n))
    return {
        "tasks": n,
        "tasks_per_sec": n / elapsed,
        "seed_tasks_per_sec": n / seed_elapsed,
        "speedup": seed_elapsed / elapsed,
    }


def _graph_tasks(n: int, hot_regions: int = 8, readers_per_write: int = 499,
                 tile_objects: int = 16) -> list[Task]:
    """A figure-shaped dependence stream: a broadcast producer whose output
    is read by hundreds of consumers (RAW fan-out: think the N-Body position
    block or a matmul B column), while every consumer also reads its own
    distinct tile — so the shape table grows to thousands of regions, the
    seed's linear territory."""
    hot = DataObject(name="hot", num_elements=hot_regions)
    tiles = [DataObject(name=f"tile{j}", num_elements=n)
             for j in range(tile_objects)]
    tasks: list[Task] = []
    phase = 0
    while len(tasks) < n:
        region = hot.region(phase % hot_regions, 1)
        tasks.append(Task(name="w", accesses=(
            Access(region, Direction.INOUT),)))
        for _ in range(min(readers_per_write, n - len(tasks))):
            i = len(tasks)
            own = tiles[i % tile_objects].region(i // tile_objects, 1)
            tasks.append(Task(name="r", accesses=(
                Access(region, Direction.IN), Access(own, Direction.IN))))
        phase += 1
    return tasks[:n]


def bench_depgraph(n: int, window: int = 256) -> dict:
    """Feed ``n`` tasks through the graph, retiring ready tasks once more
    than ``window`` are in flight — the bounded parallelism of a real run,
    which is what lets producer successor lists grow while consumers are
    still arriving."""

    def drive(graph, tasks) -> float:
        t0 = time.perf_counter()
        ready: deque = deque()
        for task in tasks:
            if graph.add_task(task):
                ready.append(task)
            if len(ready) > window:
                ready.extend(graph.task_finished(ready.popleft()))
        while ready:
            ready.extend(graph.task_finished(ready.popleft()))
        return time.perf_counter() - t0

    elapsed = drive(DependencyGraph(), _graph_tasks(n))
    seed_elapsed = drive(SeedDependencyGraph(), _graph_tasks(n))
    return {
        "tasks": n,
        "window": window,
        "tasks_per_sec": n / elapsed,
        "seed_tasks_per_sec": n / seed_elapsed,
        "speedup": seed_elapsed / elapsed,
    }


def bench_cache(ops: int, resident: int = 1000) -> dict:
    """Streaming working set at 4x capacity: every access misses and must
    evict (the seed re-sorted all resident entries per victim search)."""

    def drive(cache: SoftwareCache, regions) -> float:
        t0 = time.perf_counter()
        for i in range(ops):
            r = regions[i % len(regions)]
            if not cache.lookup(r):
                for victim in cache.choose_victims(r.nbytes):
                    cache.remove(victim.region)
                cache.insert(r, dirty=(i % 3 == 0))
        return time.perf_counter() - t0

    def fresh(cls):
        space = DeviceSpace("bench-gpu", 0, 0, functional=False)
        # capacity = `resident` one-element float32 regions
        return cls(space, capacity=resident * 4)

    obj = DataObject(name="c", num_elements=4 * resident)
    regions = [obj.region(i, 1) for i in range(4 * resident)]
    elapsed = drive(fresh(SoftwareCache), regions)
    seed_elapsed = drive(fresh(SeedCache), regions)
    return {
        "ops": ops,
        "resident_entries": resident,
        "ops_per_sec": ops / elapsed,
        "seed_ops_per_sec": ops / seed_elapsed,
        "speedup": seed_elapsed / elapsed,
    }


def bench_end_to_end(smoke: bool, repeats: int = 3) -> dict:
    """Wall-clock of one figure-style run (matmul, 2 GPUs, wb + affinity).

    Best-of-``repeats`` wall time; engine throughput comes from the run's
    own ``engine.*`` gauges (see ``Runtime.run_main``), so the events/sec
    figure excludes program-construction time outside the event loop.
    """
    size = matmul.MatmulSize(n=256, bs=64) if smoke \
        else matmul.MatmulSize(n=1024, bs=128)
    cfg = RuntimeConfig(functional=False, cache_policy="wb",
                        scheduler="affinity")
    best_wall, best = float("inf"), None
    for _ in range(1 if smoke else repeats):
        t0 = time.perf_counter()
        res = matmul.run_ompss(fresh_multi_gpu(2), size, config=cfg)
        wall = time.perf_counter() - t0
        if wall < best_wall:
            best_wall, best = wall, res
    return {
        "figure": f"matmul-2gpu-wb-affinity-n{size.n}",
        "wall_seconds": best_wall,
        "simulated_makespan": best.makespan,
        "sim_events_processed": best.metrics.get("engine.events_processed"),
        "sim_events_per_wall_second":
            best.metrics.get("engine.events_per_wall_second"),
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run_suite(smoke: bool = False) -> dict:
    sched_sizes = (200, 1000) if smoke else (1000, 10000)
    graph_size = 1000 if smoke else 10000
    cache_ops = 2000 if smoke else 50000
    results = {
        "scheduler": {str(n): bench_scheduler(n) for n in sched_sizes},
        "depgraph": bench_depgraph(graph_size),
        "cache": bench_cache(cache_ops),
        "end_to_end": bench_end_to_end(smoke),
    }
    return {
        "schema": SCHEMA,
        "mode": "smoke" if smoke else "full",
        "results": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; validates the suite, not the perf")
    parser.add_argument("--out", default="BENCH_core.json",
                        help="output path (default: ./BENCH_core.json)")
    args = parser.parse_args(argv)
    report = run_suite(smoke=args.smoke)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for name, res in report["results"].items():
        if name == "scheduler":
            for size, r in res.items():
                print(f"scheduler@{size}: {r['tasks_per_sec']:,.0f} tasks/s "
                      f"({r['speedup']:.1f}x vs seed)")
        elif "speedup" in res:
            unit = "tasks/s" if "tasks_per_sec" in res else "ops/s"
            rate = res.get("tasks_per_sec", res.get("ops_per_sec"))
            print(f"{name}: {rate:,.0f} {unit} "
                  f"({res['speedup']:.1f}x vs seed)")
        else:
            eps = res.get("sim_events_per_wall_second") or 0.0
            print(f"{name}: {res['wall_seconds']:.2f} s wall, "
                  f"{res['simulated_makespan'] * 1e3:.2f} ms simulated, "
                  f"{eps:,.0f} events/s")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
