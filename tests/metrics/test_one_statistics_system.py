"""One statistics system: in the layers only ``Runtime`` builds, a count
lives in the counter registry and nowhere else.

The old attribute names (``cache.hits``, ``coherence.transfers``,
``am.bytes_sent``, ``rt.tasks_finished``, …) are read-only views of their
counters; a constructor given no registry counts into a private one.  The
numbers pinned below were recorded at the commit that still kept every
statistic twice (docs/OBSERVABILITY.md, "One statistics system").
"""

import re
from pathlib import Path

import pytest

import repro
from repro.api import Program
from repro.apps import stream
from repro.bench.harness import fresh_multi_gpu
from repro.gasnet import AMLayer
from repro.gasnet.am import SHORT_SIZE
from repro.hardware import build_gpu_cluster
from repro.memory import DataObject, HostSpace
from repro.memory.cache import SoftwareCache
from repro.memory.directory import Directory
from repro.memory.space import DeviceSpace
from repro.metrics import CounterRegistry
from repro.runtime import Task, make_scheduler
from repro.sim import Environment
from tests.bench.golden_scenarios import _ST, SCENARIOS, _mgpu

# ------------------------------------------------------- (a) parity on runs

#: scenario -> (run, Program.stats, number of snapshot keys).  The key
#: counts include the hardware's own counters: two ``hardware.gpu.*`` per
#: GPU, ``hardware.network.*`` on a cluster, and one ``hardware.link.*``
#: set per GPU link (node-qualified on a cluster, whose nodes each have a
#: ``gpu0``).
PINNED = {
    "matmul-4gpu-wb-affinity": (
        SCENARIOS["matmul-4gpu-wb-affinity"],
        {"tasks": 512, "transfers": 520, "bytes_transferred": 8519680,
         "dedup_hits": 0, "cache_hits": 1022, "cache_misses": 514,
         "cache_evictions": 0, "network_bytes": 0}, 148),
    "matmul-2node-stos-ps4": (
        SCENARIOS["matmul-2node-stos-ps4"],
        {"tasks": 704, "transfers": 352, "bytes_transferred": 5767168,
         "dedup_hits": 4, "cache_hits": 1280, "cache_misses": 256,
         "cache_evictions": 0, "network_bytes": 1634304}, 142),
    # nocache drops every region after its task: one eviction per miss.
    "stream-2gpu-nocache": (
        lambda: stream.run_ompss(fresh_multi_gpu(2), _ST,
                                 config=_mgpu("nocache", "default")),
        {"tasks": 208, "transfers": 528, "bytes_transferred": 1081344,
         "dedup_hits": 0, "cache_hits": 0, "cache_misses": 528,
         "cache_evictions": 528, "network_bytes": 0}, 96),
}


def views_of(rt) -> dict:
    """Every surviving attribute view of one runtime, next to the name of
    the counter it must equal."""
    out = {
        "runtime.tasks_finished": rt.tasks_finished,
        "coherence.transfers": rt.coherence.transfers,
        "coherence.bytes_transferred": rt.coherence.bytes_transferred,
    }
    for cache in rt.all_caches():
        prefix = f"cache.{cache.space.name}"
        out[f"{prefix}.hits"] = cache.hits
        out[f"{prefix}.misses"] = cache.misses
        out[f"{prefix}.evictions"] = cache.evictions
        out[f"{prefix}.writebacks"] = cache.writebacks
    if rt.am is not None:
        out["am.short_sent"] = rt.am.short_sent
        out["am.long_sent"] = rt.am.long_sent
        out["am.bytes_sent"] = rt.am.bytes_sent
    for image in rt.images:
        for worker in image.smp_workers:
            out[f"worker.{worker.place_name}.tasks"] = worker.tasks_run
        for manager in image.gpu_managers:
            out[f"gpu.{manager.place_name}.tasks"] = manager.tasks_run
    # Scheduler counters are not namespaced per image: every image's view
    # reports the run's total.
    for image in rt.images:
        assert image.scheduler.stolen == rt.metrics.value("scheduler.steals")
    return out


@pytest.mark.parametrize("name", PINNED)
def test_views_equal_counters_and_nothing_new_is_created(name, runtimes):
    run, stats, nkeys = PINNED[name]
    run()
    rt = runtimes[-1]
    before = rt.metrics.snapshot()
    assert len(before) == nkeys
    views = views_of(rt)
    assert any(views.values())
    for counter, seen in views.items():
        assert seen == rt.metrics.value(counter), counter
    # The apps build their Program internally; ``stats`` reads only ``rt``.
    prog = Program.__new__(Program)
    prog.rt = rt
    assert prog.stats == stats
    # Reading a view or the stats binds no instrument: lazily created
    # counters (evictions, write-backs, am.*) stay lazy.
    assert rt.metrics.snapshot() == before
    if not stats["cache_evictions"]:
        assert not [k for k in before if k.endswith(".evictions")]
    if not stats["network_bytes"]:
        assert not [k for k in before if k.startswith("am.")]


# --------------------------------------- (b) bare constructions count too

def _region(nbytes=4096):
    obj = DataObject(name="x", num_elements=nbytes // 4)
    return obj.whole


def test_bare_am_layer_counts_into_a_private_registry():
    env = Environment()
    am = AMLayer(env, build_gpu_cluster(env, num_nodes=2).network)
    am.endpoint(1).register("ping", lambda src: None)
    env.run(until=am.request(0, 1, "ping"))
    assert am.short_sent == 1 and am.long_sent == 0
    assert am.bytes_sent == SHORT_SIZE
    assert am.metrics.value("am.link.0->1.messages") == 1
    # The AM layer has an environment: no registry given means its one.
    assert am.metrics is env.metrics


def test_mpi_cuda_baseline_counts_into_the_machine_registry():
    """No Runtime: the hardware and the CUDA streams still report."""
    from repro.apps.matmul import MatmulSize
    from repro.apps.matmul.mpi_cuda import run_mpi_cuda

    env = Environment()
    machine = build_gpu_cluster(env, num_nodes=2)
    run_mpi_cuda(machine, MatmulSize(n=256, bs=64), functional=False)
    snap = machine.metrics.snapshot()
    links = [link for node in machine.nodes
             for link in (node.membus, node.nic_tx, node.nic_rx,
                          *(l for g in node.gpus for l in (g.h2d, g.d2h)))]
    for link in links:
        key = f"hardware.link.{link.name}.bytes_moved"
        assert snap[key] == link.bytes_moved, key
    assert machine.nodes[0].nic_tx.bytes_moved > 0
    assert snap["hardware.network.bytes_moved"] \
        == machine.network.bytes_moved > 0
    ops = {k: v for k, v in snap.items()
           if k.startswith("cuda.stream.") and k.endswith(".ops")}
    assert len(ops) == 2 and all(ops.values())
    assert all(snap[f"hardware.gpu.node{n}.gpu0.kernels"] > 0
               for n in (0, 1))


def test_bare_directory_counts_into_a_private_registry():
    host = HostSpace("h", 0, functional=False, canonical=True)
    directory = Directory(home=host)
    region = _region()
    assert directory.is_current(region, host)
    assert directory.metrics.value("directory.lookups") == 1
    assert directory.metrics.value("directory.entries_created") == 1
    assert directory.metrics is not Directory(home=host).metrics


def test_bare_cache_counts_into_a_private_registry():
    space = DeviceSpace("g", 0, 0, functional=False)
    cache = SoftwareCache(space, capacity=1 << 20)
    region = _region()
    assert not cache.lookup(region)
    cache.insert(region, dirty=True)
    assert cache.lookup(region)
    cache.mark_clean(region)
    cache.remove(region)
    assert (cache.hits, cache.misses, cache.evictions,
            cache.writebacks) == (1, 1, 1, 1)
    assert cache.hit_rate == 0.5
    assert cache.metrics.value("cache.g.inserts") == 1


def test_bare_scheduler_counts_into_a_private_registry():
    host = HostSpace("h", 0, functional=False, canonical=True)
    sched = make_scheduler("affinity", lambda *a: None, Directory(home=host))
    sched.submit(Task(name="t", device="smp"))
    assert sched.metrics.value("scheduler.ready_submissions") == 1
    assert sched.metrics.value("scheduler.pending") == 1
    assert sched.metrics.info("scheduler.policy") == "affinity"
    assert sched.estimator.metrics is sched.metrics
    assert (sched.stolen, sched.stolen_tasks) == (0, 0)


def test_a_passed_registry_is_used_even_when_empty():
    """``CounterRegistry.__bool__`` is always true and the constructors
    test ``is None``: an empty registry handed in is never replaced."""
    shared = CounterRegistry()
    host = HostSpace("h", 0, functional=False, canonical=True)
    assert Directory(home=host, metrics=shared).metrics is shared
    assert make_scheduler("bf", lambda *a: None, None,
                          metrics=shared).metrics is shared


# ----------------------------------------------------- (d) design budget

SRC = Path(repro.__file__).parent
#: the modules whose only non-test constructor is ``Runtime``.
SEVEN = ("runtime/scheduler/base.py", "runtime/scheduler/policies.py",
         "runtime/scheduler/adaptive.py",
         "runtime/scheduler/critical_path.py", "gasnet/am.py",
         "memory/cache.py", "memory/directory.py")
#: ``if metrics is None:`` default lines allowed per module (one per
#: constructor that takes ``metrics=None``; the AM layer takes none, it
#: counts into its environment's registry).
DEFAULTS = {"runtime/scheduler/base.py": 1,
            "runtime/scheduler/critical_path.py": 1,
            "memory/cache.py": 1, "memory/directory.py": 1}
#: the statistics that used to be kept twice; none may be a plain integer
#: attribute again anywhere they used to live.
ONCE_TWICE_KEPT = (
    "tasks_submitted", "tasks_finished", "transfers", "bytes_transferred",
    "dedup_hits", "hits", "misses", "evictions", "writebacks",
    "writebacks_elided", "short_sent", "long_sent", "bytes_sent", "stolen",
    "stolen_tasks", "tasks_run", "switches")
STAT_HOMES = SEVEN + ("runtime/runtime.py", "runtime/coherence.py",
                      "runtime/worker.py", "runtime/gpu_manager.py")


def test_no_optional_registry_seam_in_the_layers_runtime_builds():
    guard = re.compile(r"metrics is not None|_c_\w+ is (not )?None")
    default = re.compile(r"^\s*if metrics is None:$")
    for rel in SEVEN:
        lines = (SRC / rel).read_text().splitlines()
        assert not [ln for ln in lines if guard.search(ln)], rel
        is_none = [ln for ln in lines if "metrics is None" in ln]
        assert len(is_none) == DEFAULTS.get(rel, 0), (rel, is_none)
        assert all(default.match(ln) for ln in is_none), (rel, is_none)


def test_no_statistic_is_stored_beside_its_counter():
    store = re.compile(r"\b\w+\.(%s)\s*(\+=|=(?!=))"
                       % "|".join(ONCE_TWICE_KEPT))
    for rel in STAT_HOMES:
        hits = [ln.strip() for ln in (SRC / rel).read_text().splitlines()
                if store.search(ln)]
        assert not hits, (rel, hits)


def test_the_registry_holds_no_wall_clock_and_nothing_times_it():
    """The benchmark ledger (BENCHMARK.json) is the one wall-clock
    measurement: code, tests, CI and docs name neither the wall-clock
    gauges a run used to record nor the scripts that timed runs beside
    the ledger."""
    root = SRC.resolve().parents[1]
    gone = re.compile(r"wall_seconds|events_per_wall_second|perf_gate|"
                      r"perf_baseline|core_bench|BENCH_core")
    paths = [root / "README.md"]
    for top in ("src/repro", "tests", "benchmarks/perf", ".github", "docs"):
        paths += [p for p in sorted((root / top).rglob("*"))
                  if p.suffix in (".py", ".yml", ".json", ".md")
                  and p != Path(__file__).resolve()]   # it spells the pattern
    for path in paths:
        hits = [ln for ln in path.read_text().splitlines()
                if gone.search(ln)]
        assert not hits, (str(path.relative_to(root)), hits)
