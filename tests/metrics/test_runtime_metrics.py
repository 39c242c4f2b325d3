"""End-to-end counter accounting through the instrumented runtime."""

import pytest

from repro.api import Program
from repro.apps.matmul import MatmulSize
from repro.apps.matmul.common import tile_start
from repro.apps.matmul.ompss import matmul_tile
from repro.cuda import KernelSpec
from repro.hardware import build_gpu_cluster, build_multi_gpu_node
from repro.runtime import (
    Access,
    Direction,
    Runtime,
    RuntimeConfig,
    Task,
)
from repro.sim import Environment


def two_task_matmul(cache_policy: str):
    """Two chained matmul tile tasks (C += A*B twice) on one GPU."""
    size = MatmulSize(n=128, bs=128)
    machine = build_multi_gpu_node(Environment(), num_gpus=1)
    prog = Program(machine, RuntimeConfig(functional=False,
                                          cache_policy=cache_policy))
    a = prog.array("A", size.elements)
    b = prog.array("B", size.elements)
    c = prog.array("C", size.elements)
    te = size.tile_elements
    s = tile_start(size, 0, 0)

    def main():
        for _ in range(2):
            matmul_tile(a[s:s + te], b[s:s + te], c[s:s + te],
                        size.bs, size.bs, size.bs)
        yield from prog.taskwait(noflush=True)

    prog.run(main())
    return prog


def cache_totals(snapshot, what):
    return sum(v for k, v in snapshot.items()
               if k.startswith("cache.") and k.endswith(f".{what}"))


# --------------------------------------------------- cache policy ablation

def test_write_back_hits_on_second_task():
    snap = two_task_matmul("wb").metrics.snapshot()
    # Task 1 misses A, B, C; task 2 finds all three resident.
    assert cache_totals(snap, "misses") == 3
    assert cache_totals(snap, "hits") == 3
    assert cache_totals(snap, "evictions") == 0


def test_nocache_never_hits():
    snap = two_task_matmul("nocache").metrics.snapshot()
    # Everything is dropped after each task: 6 misses, no reuse.
    assert cache_totals(snap, "hits") == 0
    assert cache_totals(snap, "misses") == 6
    assert cache_totals(snap, "evictions") > 0


def test_policy_changes_transfer_counters_too():
    wb = two_task_matmul("wb").metrics.snapshot()
    nc = two_task_matmul("nocache").metrics.snapshot()
    assert nc["coherence.bytes_transferred"] > wb["coherence.bytes_transferred"]


def test_legacy_stats_agree_with_registry():
    prog = two_task_matmul("wb")
    snap = prog.metrics.snapshot()
    stats = prog.stats
    assert stats["cache_hits"] == cache_totals(snap, "hits")
    assert stats["cache_misses"] == cache_totals(snap, "misses")
    assert stats["transfers"] == snap["coherence.transfers"]
    assert stats["bytes_transferred"] == snap["coherence.bytes_transferred"]
    assert stats["tasks"] == snap["runtime.tasks_finished"]


# ------------------------------------------------------- GPU-layer counters

def test_gpu_kernel_and_dma_counters():
    prog = two_task_matmul("wb")
    snap = prog.metrics.snapshot()
    assert snap["gpu.gpu:0:0.kernels"] == 2
    assert snap["gpu.gpu:0:0.tasks"] == 2
    assert snap["gpu.gpu:0:0.dma.h2d.copies"] == 3
    assert snap["gpu.gpu:0:0.dma.h2d.bytes"] > 0
    assert snap["tasks.cuda.duration"]["count"] == 2
    # Stream enqueues cover kernels + DMA ops.
    stream_ops = sum(v for k, v in snap.items()
                     if k.startswith("cuda.stream.") and k.endswith(".ops"))
    assert stream_ops >= 5


def test_prefetch_counters():
    env = Environment()
    machine = build_multi_gpu_node(env, num_gpus=1)
    rt = Runtime(machine, RuntimeConfig(functional=False, prefetch=True,
                                        overlap=True))
    kernel = KernelSpec(name="k", cost=lambda spec: 1e-3)
    tasks = []
    for i in range(4):
        obj = rt.register_array(f"x{i}", 1 << 16)
        tasks.append(Task(name=f"t{i}", device="cuda", kernel=kernel,
                          accesses=(Access(obj.whole, Direction.INOUT),)))

    def main():
        for t in tasks:
            rt.submit(t)
        yield from rt.taskwait(noflush=True)

    rt.run_main(main())
    snap = rt.metrics.snapshot()
    assert snap["gpu.gpu:0:0.prefetch.staged"] >= 1
    assert snap["gpu.gpu:0:0.prefetch.hits"] >= 1


# --------------------------------------------------- cluster link accounting

def cluster_run(num_nodes=2, tasks=8):
    env = Environment()
    machine = build_gpu_cluster(env, num_nodes=num_nodes)
    rt = Runtime(machine, RuntimeConfig(functional=False,
                                        scheduler="affinity",
                                        kernel_jitter=0))
    kernel = KernelSpec(name="k", cost=lambda spec: 1e-3)
    task_list = []
    for i in range(tasks):
        obj = rt.register_array(f"x{i}", 1 << 16)
        task_list.append(Task(name=f"t{i}", device="cuda", kernel=kernel,
                              accesses=(Access(obj.whole, Direction.INOUT),)))

    def main():
        for t in task_list:
            rt.submit(t)
        yield from rt.taskwait(noflush=True)

    rt.run_main(main())
    return rt


def test_bytes_per_link_on_two_node_cluster():
    rt = cluster_run()
    snap = rt.metrics.snapshot()
    # Data shipped to node 1 must appear on the master->slave wire link,
    # and the byte count must be an exact multiple of the region size.
    assert snap["link.net:0->1.transfers"] >= 1
    region_bytes = (1 << 16) * 4
    assert snap["link.net:0->1.bytes"] >= region_bytes
    assert snap["link.net:0->1.bytes"] % region_bytes == 0
    # The AM layer accounts the same wire, including control traffic.
    assert snap["am.link.0->1.bytes"] >= snap["link.net:0->1.bytes"]
    assert snap["am.link.0->1.messages"] >= snap["link.net:0->1.transfers"]
    # Completion messages flow back on the reverse link.
    assert snap["am.link.1->0.messages"] >= 1


def test_per_link_counters_sum_to_totals():
    rt = cluster_run()
    snap = rt.metrics.snapshot()
    link_bytes = sum(v for k, v in snap.items()
                     if k.startswith("link.") and k.endswith(".bytes"))
    assert link_bytes == snap["coherence.bytes_transferred"]
    assert snap["coherence.bytes_transferred"] == \
        rt.coherence.bytes_transferred


def test_cluster_dispatch_counters():
    rt = cluster_run()
    snap = rt.metrics.snapshot()
    assert snap["cluster.node1.dispatched"] >= 1
    assert snap["cluster.node1.outstanding"] == 0  # drained at the end
    assert snap["cluster.node1.outstanding.high_water"] >= 1


def test_presend_counter_with_window():
    env = Environment()
    machine = build_gpu_cluster(env, num_nodes=2)
    rt = Runtime(machine, RuntimeConfig(functional=False,
                                        scheduler="affinity", presend=2,
                                        kernel_jitter=0))
    kernel = KernelSpec(name="k", cost=lambda spec: 1e-3)
    obj = rt.register_array("x", 1 << 16)
    # A chain pinned to one region: affinity keeps it on one node, so with
    # presend=2 later tasks ship while earlier ones still run.
    chain = [Task(name=f"t{i}", device="cuda", kernel=kernel,
                  accesses=(Access(obj.whole, Direction.INOUT),))
             for i in range(6)]

    def main():
        for t in chain:
            rt.submit(t)
        yield from rt.taskwait(noflush=True)

    rt.run_main(main())
    snap = rt.metrics.snapshot()
    total_presends = sum(v for k, v in snap.items()
                         if k.startswith("cluster.")
                         and k.endswith(".presends"))
    dispatched = sum(v for k, v in snap.items()
                     if k.startswith("cluster.")
                     and k.endswith(".dispatched"))
    if dispatched >= 2:
        assert total_presends >= 1


# ------------------------------------------------------------ shared registry

def test_registry_can_be_shared_across_runs():
    from repro.metrics import CounterRegistry
    shared = CounterRegistry()
    for _ in range(2):
        env = Environment(metrics=shared)
        machine = build_multi_gpu_node(env, num_gpus=1)
        prog = Program(machine, RuntimeConfig(functional=False))
        size = MatmulSize(n=128, bs=128)
        a = prog.array("A", size.elements)
        b = prog.array("B", size.elements)
        c = prog.array("C", size.elements)
        te = size.tile_elements

        def main():
            matmul_tile(a[0:te], b[0:te], c[0:te],
                        size.bs, size.bs, size.bs)
            yield from prog.taskwait(noflush=True)

        prog.run(main())
    assert shared.value("runtime.tasks_finished") == 2
    # The registry is the one store, so under a caller-shared registry the
    # attribute views of the *second* run report the registry's totals.
    assert prog.rt.tasks_finished == 2
    assert prog.stats["tasks"] == 2
    assert prog.rt.coherence.transfers == shared.value("coherence.transfers")
    cache, = prog.rt.all_caches()
    assert cache.misses == 6 and cache.hits == 0
    assert prog.rt.master_image.gpu_managers[0].tasks_run == 2
