"""Unit tests for SMP workers and argument resolution."""

from dataclasses import replace

import numpy as np
import pytest

from repro.hardware import MULTI_GPU_NODE, build_multi_gpu_node
from repro.memory import DataObject, HostSpace
from repro.runtime import Access, Direction, Runtime, RuntimeConfig, Task
from repro.runtime.worker import resolve_args
from repro.sim import Environment


def canonical_space():
    space = HostSpace("h", 0, functional=True, canonical=True)
    obj = DataObject(name="x", num_elements=8)
    space.register_object(obj, initial=np.arange(8, dtype=np.float32))
    return space, obj


def test_resolve_args_reads_and_writes():
    space, obj = canonical_space()
    r_in = obj.region(0, 4)
    r_out = obj.region(4, 4)
    task = Task(name="t", accesses=(Access(r_in, Direction.IN),
                                    Access(r_out, Direction.OUT)),
                args=(r_in, 3.5, r_out))
    resolved = resolve_args(task, space)
    np.testing.assert_array_equal(resolved[0], [0, 1, 2, 3])
    assert resolved[1] == 3.5
    resolved[2][:] = 9.0
    np.testing.assert_array_equal(space.read(r_out), 9.0)


def test_resolve_args_list_of_regions():
    space, obj = canonical_space()
    parts = [obj.region(i * 2, 2) for i in range(4)]
    task = Task(name="t",
                accesses=tuple(Access(p, Direction.IN) for p in parts),
                args=(tuple(parts),))
    resolved = resolve_args(task, space)
    assert isinstance(resolved[0], list)
    np.testing.assert_array_equal(np.concatenate(resolved[0]),
                                  np.arange(8))


def test_resolve_args_unlisted_region_rejected():
    space, obj = canonical_space()
    stray = obj.region(0, 4)
    task = Task(name="t", args=(stray,))
    with pytest.raises(ValueError, match="without a dependence clause"):
        resolve_args(task, space)


def _one_gpu_node(cores):
    spec = replace(MULTI_GPU_NODE, cpu=replace(MULTI_GPU_NODE.cpu,
                                               cores=cores))
    return build_multi_gpu_node(Environment(), num_gpus=1, spec=spec)


def test_smp_workers_execute_concurrently_up_to_core_count():
    rt = Runtime(_one_gpu_node(cores=5),     # 1 manager + 4 SMP workers
                 RuntimeConfig(kernel_jitter=0, task_overhead=0,
                               functional=False))
    obj = rt.register_array("x", 64)
    tasks = [Task(name=f"t{i}", device="smp", smp_cost=1.0,
                  accesses=(Access(obj.region(i * 8, 8), Direction.OUT),))
             for i in range(8)]

    def main():
        for t in tasks:
            rt.submit(t)
        yield from rt.taskwait(noflush=True)

    makespan = rt.run_main(main())
    # 8 one-second tasks over 4 workers: two waves.
    assert makespan == pytest.approx(2.0, rel=0.01)


def test_worker_counts_tasks():
    rt = Runtime(_one_gpu_node(cores=2),     # 1 manager + 1 SMP worker
                 RuntimeConfig(kernel_jitter=0, task_overhead=0))
    obj = rt.register_array("x", 8)

    def body(buf):
        buf[:] = 1

    def main():
        for _ in range(3):
            rt.submit(Task(name="t", device="smp", smp_cost=1e-6, func=body,
                           accesses=(Access(obj.whole, Direction.INOUT),),
                           args=(obj.whole,)))
        yield from rt.taskwait()

    rt.run_main(main())
    worker = rt.master_image.smp_workers[0]
    assert rt.metrics.value(f"worker.{worker.place_name}.tasks") == 3
