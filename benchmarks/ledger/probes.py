"""Public-function probes and feature-tax pairs (per-layer groups 3 and 4).

A probe times a fixed number of operations against one layer's public
functions, with no runtime around them unless the layer needs one, and
reports the best of three rounds as operations per second.  Each probe is
reported under the one workload it is meant to explain (``PROBES``); the
feature-tax pairs run on the cholesky miniature and are reported under
``cholesky-mgpu``.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import time
from collections import deque

from repro.api import target, task
from repro.api.data import DataHandle
from repro.apps import cholesky
from repro.bench.harness import fresh_multi_gpu
from repro.dagfuzz import generate
from repro.faults import FaultPlan
from repro.gasnet import AMLayer
from repro.hardware import build_gpu_cluster, build_multi_gpu_node
from repro.memory.cache import SoftwareCache
from repro.memory.directory import Directory
from repro.memory.region import DataObject
from repro.memory.space import DeviceSpace, HostSpace
from repro.metrics import CounterRegistry
from repro.runtime import Access, Direction, Runtime, RuntimeConfig, Task
from repro.runtime import trace as runtime_trace
from repro.runtime.dependences import DependencyGraph
from repro.runtime.scheduler import make_scheduler
from repro.runtime.trace import Tracer
from repro.sanitizer import install as install_sanitizer
from repro.cuda import KernelSpec
from repro.service.isolation import call_isolated
from repro.service.job import JobState
from repro.service.staging import StagingDir
from repro.sim import Environment

import trace as ledger_trace
from workloads import BEST, CHOLESKY_MINI, OUT_DIR

_NULL_KERNEL = KernelSpec(name="null", cost=lambda spec: 1e-6)


def _best_rate(ops: int, run) -> float:
    """Best of three rounds of ``run()`` (which returns elapsed seconds)."""
    best = None
    for _ in range(3):
        gc.collect()
        elapsed = run()
        best = elapsed if best is None else min(best, elapsed)
    return ops / best


# ----------------------------------------------------------------------
# matmul-cluster: event core, AM path, metrics registry
# ----------------------------------------------------------------------

def sim_bare_events(n: int) -> float:
    """``Environment.timeout`` / ``process`` / ``run`` with no runtime."""
    events = []

    def run():
        env = Environment()

        def ticker(count):
            for _ in range(count):
                yield env.timeout(1.0)

        for _ in range(10):
            env.process(ticker(n // 10))
        t0 = time.perf_counter()
        env.run()
        events.append(env.events_processed)
        return time.perf_counter() - t0

    return _best_rate(1, run) * events[0]


def gasnet_am_requests(n: int) -> float:
    """``AMLayer.request`` -> handler on a 2-node machine, one at a time."""

    def run():
        env = Environment()
        am = AMLayer(env, build_gpu_cluster(env, num_nodes=2).network)
        am.endpoint(1).register("ping", lambda src, i: i)

        def sender():
            for i in range(n):
                yield am.request(0, 1, "ping", i)

        t0 = time.perf_counter()
        env.run(until=env.process(sender()))
        return time.perf_counter() - t0

    return _best_rate(n, run)


def metrics_inc(n: int) -> float:
    """``CounterRegistry.inc`` and ``observe``, by name."""

    def run():
        registry = CounterRegistry()
        t0 = time.perf_counter()
        for i in range(n):
            registry.inc("probe.count")
            registry.observe("probe.value", i)
        return time.perf_counter() - t0

    return _best_rate(2 * n, run)


# ----------------------------------------------------------------------
# cholesky-mgpu: dependences and the scheduler
# ----------------------------------------------------------------------

def _fan_out_tasks(n: int, hot_regions: int = 8, readers: int = 499,
                   tile_objects: int = 16) -> list:
    """The fan-out stream ``core_bench`` uses: a broadcast producer read by
    hundreds of consumers that each also read a tile of their own."""
    hot = DataObject(name="hot", num_elements=hot_regions)
    tiles = [DataObject(name=f"tile{j}", num_elements=n)
             for j in range(tile_objects)]
    tasks = []
    phase = 0
    while len(tasks) < n:
        region = hot.region(phase % hot_regions, 1)
        tasks.append(Task(name="w",
                          accesses=(Access(region, Direction.INOUT),)))
        for _ in range(min(readers, n - len(tasks))):
            i = len(tasks)
            own = tiles[i % tile_objects].region(i // tile_objects, 1)
            tasks.append(Task(name="r", accesses=(
                Access(region, Direction.IN), Access(own, Direction.IN))))
        phase += 1
    return tasks[:n]


def dependences_tasks(n: int, window: int = 256) -> float:
    """``DependencyGraph.add_task`` / ``task_finished`` with at most
    ``window`` ready tasks in flight."""

    def run():
        tasks = _fan_out_tasks(n)
        graph = DependencyGraph()
        ready = deque()
        t0 = time.perf_counter()
        for t in tasks:
            if graph.add_task(t):
                ready.append(t)
            if len(ready) > window:
                ready.extend(graph.task_finished(ready.popleft()))
        while ready:
            ready.extend(graph.task_finished(ready.popleft()))
        return time.perf_counter() - t0

    return _best_rate(n, run)


class _GpuWorker:
    """Stub execution place with the scheduler's worker contract."""

    kind = "gpu"
    node_index = 0

    def __init__(self, space):
        self.space = space

    def accepts(self, t) -> bool:
        return t.device == "cuda"


def scheduler_tasks(n: int) -> float:
    """``make_scheduler("affinity")`` ``submit`` / ``next_task`` over four
    GPU places, each task pulled towards the place holding its tile."""

    def run():
        host = HostSpace("host", 0, False, canonical=True)
        directory = Directory(home=host)
        sched = make_scheduler("affinity", lambda *a: None, directory)
        workers = [_GpuWorker(DeviceSpace(f"gpu{g}", 0, g, functional=False))
                   for g in range(4)]
        for w in workers:
            sched.register_worker(w)
        obj = DataObject(name="tiles", num_elements=n)
        tasks = []
        for i in range(n):
            region = obj.region(i, 1)
            directory.record_write(region, workers[i % 4].space)
            tasks.append(Task(name="k", device="cuda", kernel=_NULL_KERNEL,
                              accesses=(Access(region, Direction.INOUT),)))
        t0 = time.perf_counter()
        for t in tasks:
            sched.submit(t)
        popped = 0
        while popped < n:
            for w in workers:
                if sched.next_task(w) is not None:
                    popped += 1
        return time.perf_counter() - t0

    return _best_rate(n, run)


# ----------------------------------------------------------------------
# stream-evict: cache, directory, coherence
# ----------------------------------------------------------------------

def memory_cache_ops(n: int, resident: int = 1000) -> float:
    """``SoftwareCache.lookup`` / ``choose_victims`` / ``insert`` over a
    streaming working set at 4x capacity: every access misses and evicts."""

    def run():
        space = DeviceSpace("gpu", 0, 0, functional=False)
        cache = SoftwareCache(space, capacity=resident * 4)
        obj = DataObject(name="c", num_elements=4 * resident)
        regions = [obj.region(i, 1) for i in range(4 * resident)]
        t0 = time.perf_counter()
        for i in range(n):
            r = regions[i % len(regions)]
            if not cache.lookup(r):
                for victim in cache.choose_victims(r.nbytes):
                    cache.remove(victim.region)
                cache.insert(r, dirty=(i % 3 == 0))
        return time.perf_counter() - t0

    return _best_rate(n, run)


def memory_directory_ops(n: int) -> float:
    """``Directory.record_write`` / ``record_copy`` / ``holders``."""

    def run():
        host = HostSpace("host", 0, False, canonical=True)
        gpus = [DeviceSpace(f"gpu{g}", 0, g, functional=False)
                for g in range(2)]
        directory = Directory(home=host)
        obj = DataObject(name="d", num_elements=1024)
        regions = [obj.region(i, 1) for i in range(1024)]
        t0 = time.perf_counter()
        for i in range(n):
            r = regions[i % 1024]
            directory.record_write(r, gpus[i % 2])
            directory.record_copy(r, host)
            directory.holders(r)
        return time.perf_counter() - t0

    return _best_rate(3 * n, run)


def coherence_stage_commit(n: int) -> float:
    """``CoherenceEngine.stage_in`` + ``commit_outputs`` on a 1-GPU machine,
    one in / one inout region per task."""

    def run():
        env = Environment()
        rt = Runtime(build_multi_gpu_node(env, num_gpus=1),
                     RuntimeConfig(functional=False))
        obj = rt.register_array("a", 2 * 64)
        place = rt.master_image.gpu_managers[0]
        tasks = [Task(name="k", device="cuda", kernel=_NULL_KERNEL,
                      accesses=(Access(obj.region(i % 64, 1), Direction.IN),
                                Access(obj.region(64 + i % 64, 1),
                                       Direction.INOUT)))
                 for i in range(n)]

        def driver():
            for t in tasks:
                yield from rt.coherence.stage_in(t, place)
                yield from rt.coherence.commit_outputs(t, place)

        t0 = time.perf_counter()
        env.run(until=env.process(driver()))
        return time.perf_counter() - t0

    return _best_rate(n, run)


# ----------------------------------------------------------------------
# fuzz-functional: construction, task building, generation
# ----------------------------------------------------------------------

def runtime_construct(n: int) -> float:
    """Build a 2-GPU machine and a ``Runtime`` and register one array."""

    def run():
        config = RuntimeConfig(functional=True)
        t0 = time.perf_counter()
        for _ in range(n):
            rt = Runtime(build_multi_gpu_node(Environment(), num_gpus=2),
                         config)
            rt.register_array("a", 1024)
        return time.perf_counter() - t0

    return _best_rate(n, run)


@target(device="cuda", copy_deps=True)
@task(inputs=("a",), inouts=("c",), cost=lambda spec, bound: 1e-6)
def _probe_tile(a, c, n):
    pass


class _SubmitSink:
    """Stands in for a ``Program``: built tasks go nowhere."""

    @staticmethod
    def submit(t):
        return t


def api_tasks_built(n: int) -> float:
    """Slice two handles and call a ``@task`` function: the cost of turning
    one annotated call into a ``Task``."""

    def run():
        sink = _SubmitSink()
        a = DataHandle(sink, DataObject(name="a", num_elements=n * 4))
        c = DataHandle(sink, DataObject(name="c", num_elements=n * 4))
        t0 = time.perf_counter()
        for j in range(0, n * 4, 4):
            _probe_tile(a[j:j + 4], c[j:j + 4], 4)
        return time.perf_counter() - t0

    return _best_rate(n, run)


def dagfuzz_generate(n: int) -> float:
    """``dagfuzz.generate`` over the default profile."""

    def run():
        t0 = time.perf_counter()
        for seed in range(n):
            generate(seed, "default")
        return time.perf_counter() - t0

    return _best_rate(n, run)


# ----------------------------------------------------------------------
# svc-mixed: fork isolation, staging writes, tracer
# ----------------------------------------------------------------------

def _noop():
    return None


def service_isolation_calls(n: int) -> float:
    """``call_isolated`` of a no-op: the fork + pipe + waitpid round trip."""

    def run():
        t0 = time.perf_counter()
        for _ in range(n):
            call_isolated(_noop)
        return time.perf_counter() - t0

    return _best_rate(n, run)


def service_staging_writes(n: int) -> float:
    """``StagingDir.write_status`` (write + atomic rename)."""
    root = os.path.join(OUT_DIR, f"probe-staging-{os.getpid()}")

    def run():
        staging = StagingDir(root)
        t0 = time.perf_counter()
        for i in range(n):
            staging.write_status(f"job-{i % 16}", JobState.RUNNING,
                                 tenant="probe")
        return time.perf_counter() - t0

    try:
        return _best_rate(n, run)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def trace_records(n: int) -> float:
    """``Tracer.record`` of ``n`` spans, then one ``to_chrome``."""

    def run():
        tracer = Tracer()
        t0 = time.perf_counter()
        for i in range(n):
            tracer.record("task", "t", f"gpu:0:{i % 4}", i * 1e-3,
                          i * 1e-3 + 5e-4)
        tracer.to_chrome()
        return time.perf_counter() - t0

    return _best_rate(n, run)


#: workload -> [(metric name, probe, full-size op count)]
PROBES = {
    "matmul-cluster": [
        ("sim.bare_events_per_s", sim_bare_events, 200_000),
        ("gasnet.am_requests_per_s", gasnet_am_requests, 10_000),
        ("metrics.inc_per_s", metrics_inc, 200_000),
    ],
    "cholesky-mgpu": [
        ("runtime.dependences.tasks_per_s", dependences_tasks, 20_000),
        ("runtime.scheduler.tasks_per_s", scheduler_tasks, 20_000),
    ],
    "stream-evict": [
        ("memory.cache_ops_per_s", memory_cache_ops, 50_000),
        ("memory.directory_ops_per_s", memory_directory_ops, 50_000),
        ("runtime.coherence.stage_commit_per_s", coherence_stage_commit,
         10_000),
    ],
    "fuzz-functional": [
        ("runtime.core.construct_per_s", runtime_construct, 500),
        ("api.tasks_built_per_s", api_tasks_built, 20_000),
        ("dagfuzz.generate_per_s", dagfuzz_generate, 2_000),
    ],
    "svc-mixed": [
        ("service.isolation_calls_per_s", service_isolation_calls, 100),
        ("service.staging_writes_per_s", service_staging_writes, 1_000),
        ("runtime.trace.records_per_s", trace_records, 20_000),
    ],
}
PROBE_NAMES = [name for group in PROBES.values() for name, _, _ in group]


def run_probes(workload: str, smoke: bool) -> dict:
    """Every probe metric: measured under its own workload, 0 elsewhere
    (smoke mode runs a tenth of the operations)."""
    values = dict.fromkeys(PROBE_NAMES, 0.0)
    for name, probe, ops in PROBES[workload]:
        values[name] = probe(ops // 10 if smoke else ops)
    return values


# ----------------------------------------------------------------------
# Feature tax: paired runs of the cholesky miniature
# ----------------------------------------------------------------------

TAX_NAMES = ("faults.empty_plan_calls_delta", "faults.empty_plan_wall_ratio",
             "runtime.trace.on_calls_delta", "runtime.trace.on_wall_ratio",
             "sanitizer.on_wall_ratio")


def _mini(config=BEST, size=CHOLESKY_MINI):
    return cholesky.run_ompss(fresh_multi_gpu(4), size, config)


def _mini_traced():
    with runtime_trace.install():
        return _mini()


def _mini_functional():
    return _mini(BEST.with_(functional=True), cholesky.TEST_CHOLESKY)


def _mini_sanitized():
    with install_sanitizer():
        return _mini_functional()


def _calls(fn) -> int:
    _, _, stats = ledger_trace.profiled(fn)
    return ledger_trace.total_calls(stats)


def _wall_ratio(on, off, pairs: int) -> float:
    """Median over ``pairs`` of on/off wall ratios, alternating which side
    runs first."""
    def wall(fn):
        gc.collect()
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    ratios = []
    for i in range(pairs):
        took = {fn: wall(fn) for fn in ((on, off) if i % 2 else (off, on))}
        ratios.append(took[on] / took[off])
    return statistics.median(ratios)


def feature_tax(workload: str, smoke: bool) -> dict:
    """The five feature-tax metrics (0 outside ``cholesky-mgpu``)."""
    if workload != "cholesky-mgpu":
        return dict.fromkeys(TAX_NAMES, 0.0)
    pairs = 1 if smoke else 7
    with_empty_plan = BEST.with_(fault_plan=FaultPlan())

    def empty_plan():
        return _mini(with_empty_plan)

    base_calls = _calls(_mini)
    return {
        "faults.empty_plan_calls_delta": _calls(empty_plan) - base_calls,
        "faults.empty_plan_wall_ratio": _wall_ratio(empty_plan, _mini, pairs),
        "runtime.trace.on_calls_delta": _calls(_mini_traced) - base_calls,
        "runtime.trace.on_wall_ratio": _wall_ratio(_mini_traced, _mini,
                                                   pairs),
        "sanitizer.on_wall_ratio": _wall_ratio(_mini_sanitized,
                                               _mini_functional, pairs),
    }
