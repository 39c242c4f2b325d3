"""Behavioral tests for the coherence engine: policies, eviction, dedup."""

import numpy as np
import pytest

from repro.cuda import KernelSpec
from repro.hardware import build_gpu_cluster, build_multi_gpu_node
from repro.runtime import Access, Direction, Runtime, RuntimeConfig, Task
from repro.sim import Environment


def quick_kernel(name="k", cost=1e-6):
    def body(*buffers):
        for buf in buffers:
            if hasattr(buf, "fill"):
                buf += 1
    return KernelSpec(name=name, cost=lambda spec: cost, func=None)


def make_rt(machine="gpu1", **cfg):
    env = Environment()
    if machine == "gpu1":
        m = build_multi_gpu_node(env, num_gpus=1)
    elif machine == "gpu2":
        m = build_multi_gpu_node(env, num_gpus=2)
    else:
        m = build_gpu_cluster(env, num_nodes=int(machine[7:]))
    return Runtime(m, RuntimeConfig(functional=False, kernel_jitter=0,
                                    task_overhead=0, **cfg))


def run_tasks(rt, tasks):
    def main():
        for t in tasks:
            rt.submit(t)
        yield from rt.taskwait(noflush=True)

    rt.run_main(main())


def gpu_task(rt, name, *accesses, cost=1e-6):
    return Task(name=name, device="cuda", kernel=quick_kernel(name, cost),
                accesses=tuple(accesses))


def region_of(rt, name="x", nbytes=4096):
    obj = rt.register_array(name, nbytes // 4)
    return obj.whole


def test_wb_keeps_data_on_gpu_until_flush():
    rt = make_rt("gpu1", cache_policy="wb")
    r = region_of(rt)
    run_tasks(rt, [gpu_task(rt, "w", Access(r, Direction.OUT))])
    gpu_space = rt.gpu_space(0, 0)
    assert rt.directory.holders(r) == {gpu_space}
    assert rt.cache_of(gpu_space).get(r).dirty
    # Flush brings it home and cleans the cache entry.
    rt.env.process(rt.coherence.flush())
    rt.env.run()
    assert rt.master_host in rt.directory.holders(r)
    assert not rt.cache_of(gpu_space).get(r).dirty


def test_wt_propagates_writes_immediately():
    rt = make_rt("gpu1", cache_policy="wt")
    r = region_of(rt)
    run_tasks(rt, [gpu_task(rt, "w", Access(r, Direction.OUT))])
    gpu_space = rt.gpu_space(0, 0)
    # Host already holds the current version; entry resident but clean.
    assert rt.master_host in rt.directory.holders(r)
    assert gpu_space in rt.directory.holders(r)
    assert not rt.cache_of(gpu_space).get(r).dirty


def test_nocache_drops_everything_after_task():
    rt = make_rt("gpu1", cache_policy="nocache")
    r = region_of(rt)
    run_tasks(rt, [gpu_task(rt, "w", Access(r, Direction.OUT))])
    gpu_space = rt.gpu_space(0, 0)
    assert rt.master_host in rt.directory.holders(r)
    assert gpu_space not in rt.directory.holders(r)
    assert not rt.cache_of(gpu_space).has(r)


def test_wb_reuse_skips_transfers():
    rt = make_rt("gpu1", cache_policy="wb")
    r = region_of(rt)
    t1 = gpu_task(rt, "t1", Access(r, Direction.INOUT))
    t2 = gpu_task(rt, "t2", Access(r, Direction.INOUT))
    run_tasks(rt, [t1, t2])
    # One initial fetch; the second task hits the cache.
    assert rt.metrics.value("coherence.transfers") == 1


def test_nocache_refetches_every_task():
    rt = make_rt("gpu1", cache_policy="nocache")
    r = region_of(rt)
    t1 = gpu_task(rt, "t1", Access(r, Direction.INOUT))
    t2 = gpu_task(rt, "t2", Access(r, Direction.INOUT))
    run_tasks(rt, [t1, t2])
    # fetch + writeback, twice.
    assert rt.metrics.value("coherence.transfers") == 4


def test_concurrent_fetches_deduplicated():
    rt = make_rt("gpu1", cache_policy="wb")
    obj = rt.register_array("x", 1024)
    r = obj.whole
    # Two independent readers of the same region on the same GPU.
    t1 = gpu_task(rt, "r1", Access(r, Direction.IN))
    t2 = gpu_task(rt, "r2", Access(r, Direction.IN))
    run_tasks(rt, [t1, t2])
    assert rt.metrics.value("coherence.transfers") == 1


def test_eviction_writes_back_dirty_victim():
    rt = make_rt("gpu1", cache_policy="wb")
    gpu_space = rt.gpu_space(0, 0)
    cache = rt.cache_of(gpu_space)
    # Two regions sized so the second forces the first out.
    half = cache.capacity // 2 + cache.capacity // 8
    r1 = rt.register_array("big1", half // 4).whole
    r2 = rt.register_array("big2", half // 4).whole
    t1 = gpu_task(rt, "w1", Access(r1, Direction.OUT))
    t2 = gpu_task(rt, "w2", Access(r2, Direction.OUT))
    run_tasks(rt, [t1, t2])
    # r1 was evicted: its only copy went back to the host.
    assert rt.master_host in rt.directory.holders(r1)
    assert not cache.has(r1)
    assert cache.has(r2)
    assert rt.metrics.value(f"cache.{gpu_space.name}.evictions") >= 1


def test_gpu_to_gpu_goes_through_host():
    rt = make_rt("gpu2", cache_policy="wb")
    r = region_of(rt)
    writer = gpu_task(rt, "w", Access(r, Direction.OUT))
    reader = gpu_task(rt, "r", Access(r, Direction.IN))

    # Pin the two tasks to different GPUs via the affinity of a dummy warm
    # region: simpler — run writer, then force reader onto the other GPU by
    # hinting through the scheduler is fragile; instead check the path
    # level: after the writer, fetch to the second GPU's space.
    run_tasks(rt, [writer])
    gpu1_space = rt.gpu_space(0, 1)
    cache1 = rt.cache_of(gpu1_space)
    for victim in cache1.choose_victims(r.nbytes):
        pass
    cache1.insert(r)
    before = rt.metrics.value("coherence.transfers")
    rt.env.process(rt.coherence.fetch(r, gpu1_space))
    rt.env.run()
    # Two legs: gpu0 -> host, host -> gpu1; host becomes a holder too.
    assert rt.metrics.value("coherence.transfers") - before == 2
    assert rt.master_host in rt.directory.holders(r)
    assert gpu1_space in rt.directory.holders(r)


def test_cluster_fetch_charges_network():
    rt = make_rt("cluster2", cache_policy="wb")
    r = region_of(rt, nbytes=1 << 20)
    before = rt.metrics.value("am.bytes_sent")
    rt.env.process(rt.coherence.fetch(r, rt.host_space(1)))
    rt.env.run()
    assert rt.metrics.value("am.bytes_sent") - before >= r.nbytes
    assert rt.host_space(1) in rt.directory.holders(r)


def test_mtos_routes_through_master():
    rt = make_rt("cluster4", cache_policy="wb", slave_to_slave=False)
    r = region_of(rt, nbytes=1 << 20)
    # Place current version on node 1's host, then fetch to node 2.
    rt.directory.record_write(r, rt.host_space(1))
    rt.env.process(rt.coherence.fetch(r, rt.host_space(2)))
    rt.env.run()
    # The master received a copy on the way through.
    assert rt.master_host in rt.directory.holders(r)


def test_stos_goes_direct():
    rt = make_rt("cluster4", cache_policy="wb", slave_to_slave=True)
    r = region_of(rt, nbytes=1 << 20)
    rt.directory.record_write(r, rt.host_space(1))
    rt.env.process(rt.coherence.fetch(r, rt.host_space(2)))
    rt.env.run()
    # Direct slave-to-slave: master never saw the data.
    assert rt.master_host not in rt.directory.holders(r)
    assert rt.host_space(2) in rt.directory.holders(r)


def test_flush_targets_named_regions_only():
    rt = make_rt("gpu1", cache_policy="wb")
    r1 = region_of(rt, "a")
    r2 = region_of(rt, "b")
    run_tasks(rt, [gpu_task(rt, "w1", Access(r1, Direction.OUT)),
                   gpu_task(rt, "w2", Access(r2, Direction.OUT))])
    rt.env.process(rt.coherence.flush([r1]))
    rt.env.run()
    assert rt.master_host in rt.directory.holders(r1)
    assert rt.master_host not in rt.directory.holders(r2)


def test_overlap_uses_pinned_pool():
    rt = make_rt("gpu1", cache_policy="wb", overlap=True)
    r = region_of(rt, nbytes=1 << 20)
    run_tasks(rt, [gpu_task(rt, "r", Access(r, Direction.IN))])
    manager = rt.gpu_manager_of(rt.gpu_space(0, 0))
    assert manager.ctx.pinned_pool.peak_usage >= 1 << 20
    assert manager.ctx.pinned_pool.bytes_used == 0  # leases released


def test_no_overlap_skips_pinned_pool():
    rt = make_rt("gpu1", cache_policy="wb", overlap=False)
    r = region_of(rt, nbytes=1 << 20)
    run_tasks(rt, [gpu_task(rt, "r", Access(r, Direction.IN))])
    manager = rt.gpu_manager_of(rt.gpu_space(0, 0))
    assert manager.ctx.pinned_pool.peak_usage == 0
