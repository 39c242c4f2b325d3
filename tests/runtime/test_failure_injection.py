"""Failure injection: errors must surface loudly, never hang or vanish."""

import numpy as np
import pytest

from repro.cuda import CudaError, KernelSpec
from repro.hardware import build_multi_gpu_node
from repro.memory import CacheCapacityError, PartialOverlapError
from repro.runtime import Access, Direction, Runtime, RuntimeConfig, Task
from repro.sim import Environment, SimulationError


def make_rt(num_gpus=1, **cfg):
    env = Environment()
    m = build_multi_gpu_node(env, num_gpus=num_gpus)
    defaults = dict(kernel_jitter=0, task_overhead=0)
    defaults.update(cfg)
    return Runtime(m, RuntimeConfig(**defaults))


def test_smp_task_body_exception_surfaces():
    rt = make_rt()
    obj = rt.register_array("x", 16)

    def exploding(buf):
        raise RuntimeError("task body blew up")

    def main():
        rt.submit(Task(name="boom", device="smp", smp_cost=1e-6,
                       func=exploding,
                       accesses=(Access(obj.whole, Direction.OUT),),
                       args=(obj.whole,)))
        yield from rt.taskwait()

    with pytest.raises(RuntimeError, match="task body blew up"):
        rt.run_main(main())


def test_gpu_kernel_body_exception_surfaces():
    rt = make_rt()
    obj = rt.register_array("x", 16)

    def bad_body(buf):
        raise ValueError("kernel numerical error")

    k = KernelSpec(name="bad", cost=lambda spec: 1e-6, func=bad_body)

    def main():
        rt.submit(Task(name="boom", device="cuda", kernel=k,
                       accesses=(Access(obj.whole, Direction.INOUT),),
                       args=(obj.whole,)))
        yield from rt.taskwait()

    with pytest.raises(ValueError, match="kernel numerical error"):
        rt.run_main(main())


def test_kernel_cost_model_exception_surfaces():
    rt = make_rt()
    obj = rt.register_array("x", 16)

    def bad_cost(spec):
        raise KeyError("missing cost parameter")

    k = KernelSpec(name="bad", cost=bad_cost)

    def main():
        rt.submit(Task(name="boom", device="cuda", kernel=k,
                       accesses=(Access(obj.whole, Direction.IN),)))
        yield from rt.taskwait()

    with pytest.raises(KeyError):
        rt.run_main(main())


def test_working_set_exceeding_gpu_memory_raises_capacity_error():
    rt = make_rt(functional=False)
    gpu_capacity = rt.machine.nodes[0].gpus[0].mem_capacity
    huge = rt.register_array("huge", int(gpu_capacity * 1.5) // 4)
    k = KernelSpec(name="k", cost=lambda spec: 1e-6)

    def main():
        rt.submit(Task(name="too_big", device="cuda", kernel=k,
                       accesses=(Access(huge.whole, Direction.IN),)))
        yield from rt.taskwait()

    with pytest.raises(CacheCapacityError):
        rt.run_main(main())


def test_partial_overlap_across_tasks_raises():
    rt = make_rt(functional=False)
    obj = rt.register_array("x", 100)
    k = KernelSpec(name="k", cost=lambda spec: 1e-6)

    def main():
        rt.submit(Task(name="whole", device="cuda", kernel=k,
                       accesses=(Access(obj.whole, Direction.OUT),)))
        rt.submit(Task(name="part", device="cuda", kernel=k,
                       accesses=(Access(obj.region(10, 20),
                                        Direction.IN),)))
        yield from rt.taskwait()

    with pytest.raises(PartialOverlapError):
        rt.run_main(main())


def test_deadlocked_program_is_reported_not_hung():
    """A main that waits on an event nothing triggers must be diagnosed."""
    rt = make_rt()

    def main():
        yield rt.env.event()  # never triggered

    with pytest.raises(SimulationError, match="deadlock"):
        rt.run_main(main())


def test_failure_does_not_corrupt_other_results():
    """An exploding task's siblings still complete before the error is
    raised from run (independent chains)."""
    rt = make_rt()
    good = rt.register_array("good", 16)
    bad = rt.register_array("bad", 16)

    def fill(buf):
        buf[:] = 5.0

    def explode(buf):
        raise RuntimeError("boom")

    def main():
        rt.submit(Task(name="good", device="smp", smp_cost=1e-6, func=fill,
                       accesses=(Access(good.whole, Direction.OUT),),
                       args=(good.whole,)))
        rt.submit(Task(name="bad", device="smp", smp_cost=1.0, func=explode,
                       accesses=(Access(bad.whole, Direction.OUT),),
                       args=(bad.whole,)))
        yield from rt.taskwait()

    with pytest.raises(RuntimeError, match="boom"):
        rt.run_main(main())
    np.testing.assert_allclose(rt.read_array(good), 5.0)
