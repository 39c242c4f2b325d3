"""Tests for the cluster layer: comm thread, presend window, remote exec."""

import numpy as np
import pytest

from repro.cuda import KernelSpec
from repro.hardware import build_gpu_cluster
from repro.runtime import Access, Direction, Runtime, RuntimeConfig, Task
from repro.sim import Environment


def make_rt(nodes=2, **cfg):
    env = Environment()
    machine = build_gpu_cluster(env, num_nodes=nodes)
    defaults = dict(functional=True, kernel_jitter=0, task_overhead=0)
    defaults.update(cfg)
    return Runtime(machine, RuntimeConfig(**defaults))


def bump_kernel(duration=1e-3):
    def body(buf):
        buf += 1.0
    return KernelSpec(name="bump", cost=lambda spec: duration, func=body)


def independent_tasks(rt, count, kernel=None):
    kernel = kernel or bump_kernel()
    tasks = []
    for i in range(count):
        obj = rt.register_array(f"x{i}", 256)
        tasks.append(Task(name=f"t{i}", device="cuda", kernel=kernel,
                          accesses=(Access(obj.whole, Direction.INOUT),),
                          args=(obj.whole,)))
    return tasks


def run_all(rt, tasks, noflush=False):
    def main():
        for t in tasks:
            rt.submit(t)
        yield from rt.taskwait(noflush=noflush)

    return rt.run_main(main())


def test_master_image_has_comm_thread_and_proxies():
    rt = make_rt(nodes=4)
    assert rt.master_image.comm_thread is not None
    assert len(rt.master_image.proxies) == 3
    for image in rt.images[1:]:
        assert image.comm_thread is None
        assert image.proxies == []


def test_single_node_machine_has_no_cluster_layer():
    env = Environment()
    from repro.hardware import build_multi_gpu_node

    rt = Runtime(build_multi_gpu_node(env, num_gpus=2))
    assert rt.am is None
    assert rt.master_image.comm_thread is None


def test_remote_execution_updates_results():
    rt = make_rt(nodes=2)
    tasks = independent_tasks(rt, 8)
    run_all(rt, tasks)
    for i in range(8):
        arr = rt.read_array(tasks[i].accesses[0].region.obj)
        np.testing.assert_allclose(arr, 1.0)


def dispatched(rt, proxy):
    """Tasks the master shipped to ``proxy``'s node."""
    return rt.metrics.value(f"cluster.node{proxy.node_index}.dispatched")


def test_work_distributes_across_nodes():
    rt = make_rt(nodes=4, scheduler="affinity")
    tasks = independent_tasks(rt, 32)
    run_all(rt, tasks, noflush=True)
    per_node = [dispatched(rt, p) for p in rt.master_image.proxies]
    assert sum(per_node) >= 16, "most tasks should run on remote nodes"
    assert min(per_node) >= 4
    for proxy in rt.master_image.proxies:
        assert proxy.outstanding == 0  # window fully drained


def test_presend_window_bounds_outstanding():
    for presend in (0, 2):
        rt = make_rt(nodes=2, scheduler="affinity", presend=presend)
        window = rt.master_image.comm_thread.window
        assert window == 1 + presend


def test_presend_overlaps_dispatch_with_execution():
    """With a presend window > 1 the same remote workload finishes sooner
    (transfers of queued tasks overlap remote computation)."""
    makespans = {}
    for presend in (0, 4):
        rt = make_rt(nodes=2, scheduler="affinity", presend=presend,
                     functional=False)
        kernel = bump_kernel(duration=2e-3)
        tasks = []
        for i in range(16):
            obj = rt.register_array(f"x{i}", 1 << 20)
            tasks.append(Task(name=f"t{i}", device="cuda", kernel=kernel,
                              accesses=(Access(obj.whole, Direction.INOUT),)))
        makespans[presend] = run_all(rt, tasks, noflush=True)
    assert makespans[4] < makespans[0]


def test_remote_completion_notifies_master_graph():
    rt = make_rt(nodes=2)
    obj = rt.register_array("chain", 256)
    k = bump_kernel()
    chain = [Task(name=f"c{i}", device="cuda", kernel=k,
                  accesses=(Access(obj.whole, Direction.INOUT),),
                  args=(obj.whole,))
             for i in range(5)]
    run_all(rt, chain)
    np.testing.assert_allclose(rt.read_array(obj), 5.0)
    assert rt.metrics.value("runtime.tasks_finished") == 5


def test_smp_tasks_run_remotely_too():
    rt = make_rt(nodes=2, scheduler="affinity")
    results = []

    def body(buf):
        buf[:] = 7.0

    tasks = []
    for i in range(8):
        obj = rt.register_array(f"s{i}", 64)
        tasks.append(Task(name=f"s{i}", device="smp", smp_cost=1e-5,
                          func=body,
                          accesses=(Access(obj.whole, Direction.OUT),),
                          args=(obj.whole,)))
    run_all(rt, tasks)
    for t in tasks:
        np.testing.assert_allclose(rt.read_array(t.accesses[0].region.obj),
                                   7.0)


def test_am_control_traffic_accounted():
    rt = make_rt(nodes=2)
    tasks = independent_tasks(rt, 4)
    run_all(rt, tasks, noflush=True)
    # At least one run_task + one task_done short message per remote task.
    assert rt.metrics.value("am.short_sent") >= 2 * sum(
        dispatched(rt, p) for p in rt.master_image.proxies)


def test_cluster_functional_with_overlap_prefetch_presend():
    rt = make_rt(nodes=4, scheduler="affinity", overlap=True, prefetch=True,
                 presend=2)
    obj = rt.register_array("chain", 256)
    k = bump_kernel()
    chain = [Task(name=f"c{i}", device="cuda", kernel=k,
                  accesses=(Access(obj.whole, Direction.INOUT),),
                  args=(obj.whole,))
             for i in range(10)]
    run_all(rt, chain)
    np.testing.assert_allclose(rt.read_array(obj), 10.0)
