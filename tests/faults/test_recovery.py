"""Unit tests for the recovery machinery: device blacklisting, task
re-execution, producer replay, checkpointing, and degradation windows."""

from __future__ import annotations

import pytest

from repro.cuda.kernels import KernelSpec
from repro.faults import (
    FaultEvent,
    FaultPlan,
    FaultRecoveryError,
    TaskRetryExceeded,
    check_quiescent,
)
from repro.hardware import build_gpu_cluster, build_multi_gpu_node
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.scheduler import make_scheduler
from repro.runtime.task import Access, Direction, Task
from repro.sim import Environment


def make_rt(num_gpus=2, plan=None, **cfg):
    env = Environment()
    machine = build_multi_gpu_node(env, num_gpus=num_gpus)
    defaults = dict(kernel_jitter=0, task_overhead=0, cache_policy="wb",
                    fault_plan=plan)
    defaults.update(cfg)
    return Runtime(machine, RuntimeConfig(**defaults))


def cuda_task(name, obj, direction=Direction.INOUT, cost=1e-3, func=None):
    k = KernelSpec(name, cost=lambda spec, **kw: cost, func=func)
    return Task(name=name, device="cuda", kernel=k,
                accesses=(Access(obj.whole, direction),),
                args=(obj.whole,))


# ---------------------------------------------------------------------------
# Device loss
# ---------------------------------------------------------------------------

def test_gpu_loss_blacklists_and_reexecutes_elsewhere():
    plan = FaultPlan(events=(
        FaultEvent(kind="gpu_loss", node=0, gpu=1, at=2.5e-3),
    ), seed=0, paranoid=True)
    rt = make_rt(plan=plan)
    objs = [rt.register_array(f"x{i}", 256) for i in range(8)]

    def main():
        for i, obj in enumerate(objs):
            rt.submit(cuda_task(f"t{i}", obj))
        yield from rt.taskwait()

    rt.run_main(main())
    dead = rt.images[0].gpu_managers[1]
    assert not dead.alive
    assert dead not in rt.images[0].scheduler.workers
    assert not dead.accepts(cuda_task("probe", objs[0]))
    assert rt.metrics.value("runtime.tasks_finished") == 8
    assert rt.metrics.value("faults.gpu_lost") == 1
    assert check_quiescent(rt) == []
    # The loss and every recovery action are on the timeline, in order.
    kinds = [k for _t, k, _d in rt.faults.timeline]
    assert "gpu_lost" in kinds


def test_losing_every_gpu_fails_loudly():
    plan = FaultPlan(events=(
        FaultEvent(kind="gpu_loss", node=0, gpu=0, at=1e-4),
    ), seed=0)
    rt = make_rt(num_gpus=1, plan=plan)
    obj = rt.register_array("x", 64)

    def main():
        for i in range(4):
            rt.submit(cuda_task(f"t{i}", obj))
        yield from rt.taskwait()

    with pytest.raises(FaultRecoveryError, match="no execution place"):
        rt.run_main(main())


def test_checkpointing_survives_inout_chain_loss():
    """With protect_outputs (default) an inout chain survives losing the
    device that computed every link of it."""
    plan = FaultPlan(events=(
        FaultEvent(kind="gpu_loss", node=0, gpu=0, at=2.5e-3),
    ), seed=0, paranoid=True)
    rt = make_rt(plan=plan, functional=True)
    obj = rt.register_array("x", 64)
    bumps = []

    def bump(buf):
        bumps.append(1)
        buf += 1.0

    def main():
        for i in range(6):
            rt.submit(cuda_task(f"inc{i}", obj, func=bump))
        yield from rt.taskwait()

    rt.run_main(main())
    assert (rt.read_array(obj) == 6.0).all()
    assert rt.metrics.value("faults.gpu_lost") == 1
    assert check_quiescent(rt) == []


def test_unprotected_inout_loss_is_unrecoverable():
    plan = FaultPlan(events=(
        FaultEvent(kind="gpu_loss", node=0, gpu=0, at=2.5e-3),
    ), seed=0, protect_outputs=False)
    rt = make_rt(plan=plan, functional=True)
    obj = rt.register_array("x", 64)

    def main():
        for i in range(6):
            rt.submit(cuda_task(f"inc{i}", obj, func=lambda b: None))
        yield from rt.taskwait()

    with pytest.raises(FaultRecoveryError, match="inout producer"):
        rt.run_main(main())


def test_pure_out_producer_is_replayed_without_protection():
    """protect_outputs=False: a lost sole copy is regenerated by
    re-running its (side-effect-free) producer task."""
    plan = FaultPlan(events=(
        FaultEvent(kind="gpu_loss", node=0, gpu=0, at=2e-3),
    ), seed=0, protect_outputs=False, paranoid=True)
    rt = make_rt(plan=plan, functional=True)
    obj = rt.register_array("x", 64)
    runs = []

    def produce(buf):
        runs.append(1)
        buf[:] = 7.0

    def main():
        rt.submit(cuda_task("produce", obj, direction=Direction.OUT,
                            func=produce))
        yield from rt.taskwait(noflush=True)    # result stays on gpu0 only
        yield rt.env.timeout(3e-3)              # ... which then dies
        yield from rt.taskwait()                # flush pulls it back
    rt.run_main(main())
    assert len(runs) == 2                       # original + replay
    assert (rt.read_array(obj) == 7.0).all()
    assert rt.metrics.value("faults.producers_replayed") == 1
    assert check_quiescent(rt) == []


def test_replay_without_recorded_producer_fails_loudly():
    rt = make_rt(plan=FaultPlan(events=(
        FaultEvent(kind="gpu_loss", node=0, gpu=1, at=1.0),), seed=0))
    obj = rt.register_array("x", 64)
    space = rt.gpu_space(0, 0)
    rt.directory.record_write(obj.whole, space)  # no producer recorded
    with pytest.raises(FaultRecoveryError, match="no producer"):
        rt.faults._replay_producers([obj.whole])


# ---------------------------------------------------------------------------
# Kernel aborts and retry budgets
# ---------------------------------------------------------------------------

def test_nth_kernel_abort_reexecutes_exactly_once():
    plan = FaultPlan(events=(
        FaultEvent(kind="kernel_abort", nth=2, node=0),
    ), seed=0, paranoid=True)
    rt = make_rt(num_gpus=1, plan=plan)
    objs = [rt.register_array(f"x{i}", 64) for i in range(4)]

    def main():
        for i, obj in enumerate(objs):
            rt.submit(cuda_task(f"t{i}", obj))
        yield from rt.taskwait()

    rt.run_main(main())
    assert rt.metrics.value("faults.kernel_abort") == 1
    assert rt.metrics.value("faults.tasks_reexecuted") == 1
    assert rt.metrics.value("runtime.tasks_finished") == 4
    assert check_quiescent(rt) == []


def test_abort_never_corrupts_inout_data():
    """Abort-before-side-effects: the functional body of an aborted launch
    must not have touched device buffers."""
    plan = FaultPlan(events=(
        FaultEvent(kind="kernel_abort", nth=3),
    ), seed=0, paranoid=True)
    rt = make_rt(num_gpus=1, plan=plan, functional=True)
    obj = rt.register_array("x", 32)

    def bump(buf):
        buf += 1.0

    def main():
        for i in range(5):
            rt.submit(cuda_task(f"inc{i}", obj, func=bump))
        yield from rt.taskwait()

    rt.run_main(main())
    # 5 increments, one extra *execution* for the aborted launch, but the
    # data saw exactly 5 applications.
    assert (rt.read_array(obj) == 5.0).all()


def test_retry_budget_exhaustion_fails_loudly():
    plan = FaultPlan(events=(
        FaultEvent(kind="kernel_abort", probability=1.0),
    ), seed=0, max_task_retries=2)
    rt = make_rt(num_gpus=1, plan=plan)
    obj = rt.register_array("x", 64)

    def main():
        rt.submit(cuda_task("doomed", obj))
        yield from rt.taskwait()

    with pytest.raises(TaskRetryExceeded, match="doomed"):
        rt.run_main(main())


# ---------------------------------------------------------------------------
# Degradation windows
# ---------------------------------------------------------------------------

def test_pcie_degradation_window_restores_exact_factor():
    plan = FaultPlan(events=(
        FaultEvent(kind="pcie_degrade", node=0, gpu=0, at=1e-3,
                   duration=2e-3, factor=4.0),
    ), seed=0)
    rt = make_rt(num_gpus=1, plan=plan)
    gpu = rt.machine.nodes[0].gpus[0]
    seen = {}

    def main():
        yield rt.env.timeout(2e-3)
        seen["during"] = (gpu.h2d.degradation, gpu.d2h.degradation)
        yield rt.env.timeout(2e-3)
        seen["after"] = (gpu.h2d.degradation, gpu.d2h.degradation)

    rt.start()
    rt.env.run(until=rt.env.process(main()))
    assert seen["during"] == (4.0, 4.0)
    assert seen["after"] == (1.0, 1.0)
    kinds = [k for _t, k, _d in rt.faults.timeline]
    assert kinds.count("pcie_degrade_on") == 1
    assert kinds.count("pcie_degrade_off") == 1


def test_link_degradation_is_windowed_and_composes():
    env = Environment()
    machine = build_gpu_cluster(env, num_nodes=2)
    plan = FaultPlan(events=(
        FaultEvent(kind="link_degrade", at=0.0, duration=1.0, factor=2.0),
        FaultEvent(kind="link_degrade", at=0.0, duration=2.0, factor=3.0,
                   src=0, dst=1),
    ), seed=0)
    rt = Runtime(machine, RuntimeConfig(functional=False, fault_plan=plan))
    rt.start()
    seen = {}

    def main():
        seen["both"] = rt.faults.link_slowdown(0, 1)
        seen["other_dir"] = rt.faults.link_slowdown(1, 0)
        yield env.timeout(1.5)
        seen["one"] = rt.faults.link_slowdown(0, 1)
        yield env.timeout(1.0)
        seen["none"] = rt.faults.link_slowdown(0, 1)

    env.run(until=env.process(main()))
    assert seen["both"] == 6.0
    assert seen["other_dir"] == 2.0
    assert seen["one"] == 3.0
    assert seen["none"] == 1.0


# ---------------------------------------------------------------------------
# Scheduler blacklisting (all policies clean their per-worker state)
# ---------------------------------------------------------------------------

class _FakeWorker:
    kind = "gpu"
    node_index = 0
    space = None

    def __init__(self, device="cuda"):
        self.device = device

    def accepts(self, task):
        return task.device == self.device


def _ready_task(name):
    return Task(name=name, device="cuda",
                kernel=KernelSpec(name, cost=lambda s, **kw: 1e-6))


def test_dep_aware_blacklist_drains_hint_queue():
    sched = make_scheduler("default", lambda *a: None, None)
    w1, w2 = _FakeWorker(), _FakeWorker()
    sched.register_worker(w1)
    sched.register_worker(w2)
    hinted = [_ready_task("h1"), _ready_task("h2")]
    sched.task_finished(_ready_task("done"), w1, hinted)
    assert sched.metrics.value("scheduler.pending") == 2
    stranded = sched.blacklist(w1)
    assert [t.name for t in stranded] == ["h1", "h2"]
    assert sched.workers == [w2]
    assert sched.metrics.value("scheduler.pending") == 0


def test_plan_validation_rejects_nonsense():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultEvent(kind="meteor_strike")
    with pytest.raises(ValueError, match="needs explicit node and gpu"):
        FaultEvent(kind="gpu_loss", at=1.0)
    with pytest.raises(ValueError, match="positive duration"):
        FaultEvent(kind="link_degrade", duration=0.0)
    with pytest.raises(ValueError, match=">= 1.0"):
        FaultEvent(kind="link_degrade", factor=0.5)
    with pytest.raises(ValueError, match="nth or a probability"):
        FaultEvent(kind="am_drop")
    with pytest.raises(ValueError, match="1-based"):
        FaultEvent(kind="am_drop", nth=0)
    with pytest.raises(TypeError, match="not a FaultEvent"):
        FaultPlan(events=("gpu_loss",))
    with pytest.raises(ValueError, match="retry budgets"):
        FaultPlan(am_max_retries=0)
    with pytest.raises(TypeError, match="fault_plan"):
        RuntimeConfig(fault_plan="chaos, please")


def test_dispatch_racing_gpu_loss_bounces_back_to_master():
    """A task the master dispatched while the target node's only GPU was
    dying arrives at a node with no accepting worker. The loss-time
    drains (blacklist / rebalance) cannot see a task still on the wire,
    so the arrival itself must bounce back to the master — found by the
    chaos property suite as a deadlock (the task sat in the dead node's
    queue forever, master waiting on task_done)."""
    from tests.faults.helpers import (assert_same_outputs, baseline,
                                      run_scenario)

    plan = FaultPlan(events=(
        FaultEvent(kind="gpu_loss", at=0.001953125, node=1, gpu=0),
    ), seed=0, paranoid=True)
    res = run_scenario("matmul-cluster", plan)
    assert_same_outputs(baseline("matmul-cluster"), res)
    assert res.metrics.get("faults.tasks_rerouted", 0) >= 1
