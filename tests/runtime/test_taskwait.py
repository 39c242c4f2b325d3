"""Semantics of taskwait / taskwait-on / noflush (paper Section II.A.3)."""

import numpy as np
import pytest

from repro.cuda import KernelSpec
from repro.hardware import build_multi_gpu_node
from repro.memory import PartialOverlapError
from repro.runtime import Access, Direction, Runtime, RuntimeConfig, Task
from repro.sim import Environment


def make_rt(**cfg):
    env = Environment()
    machine = build_multi_gpu_node(env, num_gpus=2)
    defaults = dict(kernel_jitter=0, task_overhead=0)
    defaults.update(cfg)
    return Runtime(machine, RuntimeConfig(**defaults))


def write_kernel(value, duration=1e-3):
    def body(buf):
        buf[:] = value
    return KernelSpec(name=f"write{value}", cost=lambda spec: duration,
                      func=body)


def write_task(region, value, duration=1e-3):
    return Task(name=f"w{value}", device="cuda",
                kernel=write_kernel(value, duration),
                accesses=(Access(region, Direction.OUT),), args=(region,))


def test_taskwait_waits_for_all_tasks():
    rt = make_rt()
    a = rt.register_array("a", 64)
    b = rt.register_array("b", 64)

    def main():
        rt.submit(write_task(a.whole, 1.0, duration=1e-3))
        rt.submit(write_task(b.whole, 2.0, duration=5e-3))
        yield from rt.taskwait()
        assert rt.graph.live_count == 0

    rt.run_main(main())
    np.testing.assert_allclose(rt.read_array(a), 1.0)
    np.testing.assert_allclose(rt.read_array(b), 2.0)


def test_taskwait_flushes_host_copies():
    rt = make_rt(cache_policy="wb")
    a = rt.register_array("a", 64)

    def main():
        rt.submit(write_task(a.whole, 3.0))
        yield from rt.taskwait()

    rt.run_main(main())
    assert rt.master_host in rt.directory.holders(a.whole)


def test_taskwait_noflush_leaves_data_on_device():
    rt = make_rt(cache_policy="wb")
    a = rt.register_array("a", 64)

    def main():
        rt.submit(write_task(a.whole, 3.0))
        yield from rt.taskwait(noflush=True)

    rt.run_main(main())
    assert rt.master_host not in rt.directory.holders(a.whole)


def test_noflush_then_flush_recovers_data():
    rt = make_rt(cache_policy="wb")
    a = rt.register_array("a", 64)

    def main():
        rt.submit(write_task(a.whole, 9.0))
        yield from rt.taskwait(noflush=True)
        yield from rt.taskwait()  # second wait flushes

    rt.run_main(main())
    np.testing.assert_allclose(rt.read_array(a), 9.0)


def test_taskwait_on_blocks_only_on_named_producer():
    rt = make_rt()
    fast = rt.register_array("fast", 64)
    slow = rt.register_array("slow", 64)
    checkpoints = {}

    def main():
        rt.submit(write_task(fast.whole, 1.0, duration=1e-3))
        rt.submit(write_task(slow.whole, 2.0, duration=1.0))
        yield from rt.taskwait_on([fast.whole])
        checkpoints["after_on"] = rt.env.now
        np.testing.assert_allclose(rt.read_array(fast), 1.0)
        yield from rt.taskwait()
        checkpoints["after_all"] = rt.env.now

    rt.run_main(main())
    assert checkpoints["after_on"] < 0.5
    assert checkpoints["after_all"] >= 1.0


def test_taskwait_on_unwritten_region_is_immediate():
    rt = make_rt()
    a = rt.register_array("a", 64)

    def main():
        yield from rt.taskwait_on([a.whole])

    makespan = rt.run_main(main())
    assert makespan == 0


@pytest.mark.parametrize("noflush", [True, False])
def test_taskwait_on_region_spanning_task_regions_raises_at_the_call(noflush):
    """``taskwait on`` names its regions under the clause rule (equal or
    disjoint, Section II.A.3): a region spanning two writers' regions is
    rejected at the call, instead of waiting for neither writer (noflush)
    or entering the directory and failing a writer's commit (flush)."""
    rt = make_rt()
    a = rt.register_array("a", 8)

    def main():
        rt.submit(write_task(a.region(0, 4), 1.0))
        rt.submit(write_task(a.region(4, 4), 2.0))
        with pytest.raises(PartialOverlapError, match="partially overlaps"):
            yield from rt.taskwait_on([a.whole], noflush=noflush)
        yield from rt.taskwait()

    rt.run_main(main())
    np.testing.assert_allclose(rt.read_array(a), [1.0] * 4 + [2.0] * 4)


@pytest.mark.parametrize("noflush", [True, False])
def test_clause_overlapping_a_taskwait_on_region_fails_at_submission(noflush):
    """A region first named by ``taskwait on`` is recorded like a clause
    region, so a later clause partially overlapping it is rejected when
    its task is submitted."""
    rt = make_rt()
    a = rt.register_array("a", 8)

    def main():
        yield from rt.taskwait_on([a.whole], noflush=noflush)
        with pytest.raises(PartialOverlapError, match="partially overlaps"):
            rt.submit(write_task(a.region(0, 4), 1.0))

    assert rt.run_main(main()) == 0


def test_empty_taskwait_returns_quickly():
    rt = make_rt()

    def main():
        yield from rt.taskwait()

    assert rt.run_main(main()) == 0


def test_tasks_after_taskwait_start_fresh_epoch():
    rt = make_rt()
    a = rt.register_array("a", 64)

    def main():
        rt.submit(write_task(a.whole, 1.0))
        yield from rt.taskwait()
        rt.submit(write_task(a.whole, 2.0))
        yield from rt.taskwait()

    rt.run_main(main())
    np.testing.assert_allclose(rt.read_array(a), 2.0)
    assert rt.metrics.value("runtime.tasks_finished") == 2
