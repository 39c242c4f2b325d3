"""Chaos scenarios for the adaptive scheduling tier.

One gpu_loss scenario per new policy (ws / cp / adaptive): the dying
GPU's queued work — deque entries, priority-queue entries, an adaptive
child's whole state — must drain back into circulation, every task must
still run, and the functional outputs must stay bit-identical to the
fault-free baseline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import cholesky
from repro.bench.harness import fresh_multi_gpu
from repro.faults import FaultEvent, FaultPlan
from repro.runtime.config import RuntimeConfig

from .helpers import assert_same_outputs

_SIZE = cholesky.TEST_CHOLESKY
NEW_POLICIES = ("ws", "cp", "adaptive")


def _run(policy, plan):
    cfg = RuntimeConfig(functional=True, cache_policy="wb",
                        scheduler=policy, kernel_jitter=0.02,
                        task_overhead=50e-6, fault_plan=plan)
    return cholesky.run_ompss(fresh_multi_gpu(2), _SIZE, config=cfg,
                              verify=True)


_baselines: dict = {}


def _baseline(policy):
    if policy not in _baselines:
        _baselines[policy] = _run(policy, None)
    return _baselines[policy]


@pytest.mark.parametrize("policy", NEW_POLICIES)
def test_gpu_loss_drains_queues_without_losing_tasks(policy):
    plan = FaultPlan(events=(
        FaultEvent(kind="gpu_loss", node=0, gpu=1, at=2.5e-3),
    ), seed=0, paranoid=True)
    res = _run(policy, plan)
    # Recovery costs virtual time, never result bits.
    assert_same_outputs(_baseline(policy), res)
    # And never loses a task: the factorization is complete and correct.
    ref = _baseline(policy).output["a"]
    assert np.array_equal(res.output["a"], ref)


@pytest.mark.parametrize("policy", NEW_POLICIES)
def test_gpu_loss_blacklists_worker_under_policy(policy):
    """The blacklisted manager must leave every child/queue structure:
    later submissions never land on a dead worker."""
    from repro.hardware import build_multi_gpu_node
    from repro.runtime import Runtime
    from repro.sim import Environment

    plan = FaultPlan(events=(
        FaultEvent(kind="gpu_loss", node=0, gpu=1, at=2.5e-3),
    ), seed=0, paranoid=True)
    env = Environment()
    rt = Runtime(build_multi_gpu_node(env, num_gpus=2),
                 RuntimeConfig(functional=True, cache_policy="wb",
                               scheduler=policy, fault_plan=plan))
    from repro.cuda.kernels import KernelSpec
    from repro.runtime.task import Access, Direction, Task

    objs = [rt.register_array(f"x{i}", 256) for i in range(8)]

    def tsk(i):
        k = KernelSpec(f"t{i}", cost=lambda spec, **kw: 1e-3, func=None)
        return Task(name=f"t{i}", device="cuda", kernel=k,
                    accesses=(Access(objs[i].whole, Direction.INOUT),),
                    args=(objs[i].whole,))

    def main():
        for i in range(len(objs)):
            rt.submit(tsk(i))
        yield from rt.taskwait()

    rt.run_main(main())
    dead = rt.images[0].gpu_managers[1]
    assert not dead.alive
    sched = rt.images[0].scheduler
    assert dead not in sched.workers
    assert id(dead) not in sched._local
    assert rt.metrics.value("runtime.tasks_finished") == 8
