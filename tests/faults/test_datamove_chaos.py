"""Fault injection with the datamove optimisation layer fully enabled.

Write-back elision deliberately *discards* data the liveness tracker
proved dead; cost-aware eviction reorders which bytes leave a cache;
prestaging moves them speculatively.  All of that must compose with chaos:
kernels abort, GPUs die mid-commit, PCIe degrades — and every recovered
run must still produce outputs bit-identical to the fault-free computation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import matmul, nbody, stream
from repro.bench.harness import fresh_cluster, fresh_multi_gpu
from repro.cuda import KernelSpec
from repro.faults import FaultEvent, FaultPlan
from repro.runtime import Access, Direction, Runtime, Task
from repro.runtime.config import RuntimeConfig

from .helpers import assert_same_outputs

_MM = matmul.MatmulSize(n=96, bs=32)
_ST = stream.StreamSize(n=1024, bsize=128, ntimes=2)
_NB = nbody.NBodySize(n=256, blocks=4, iters=2)

#: every datamove mechanism on at once (presend_depth only matters on the
#: cluster scenario but is harmless elsewhere).
_DM = dict(wb_elision=True, presend_depth=2, cost_aware_eviction=True)

_BASE = dict(functional=True, cache_policy="wb", scheduler="affinity",
             kernel_jitter=0.02, task_overhead=50e-6, **_DM)


def _mm_mgpu(plan):
    cfg = RuntimeConfig(**_BASE, fault_plan=plan)
    return matmul.run_ompss(fresh_multi_gpu(2), _MM, config=cfg,
                            verify=True)


def _st_mgpu(plan):
    cfg = RuntimeConfig(**{**_BASE, "scheduler": "default"},
                        fault_plan=plan)
    return stream.run_ompss(fresh_multi_gpu(2), _ST, config=cfg,
                            verify=True)


def _nb_mgpu(plan):
    cfg = RuntimeConfig(**_BASE, fault_plan=plan)
    return nbody.run_ompss(fresh_multi_gpu(2), _NB, config=cfg,
                           verify=True)


def _mm_cluster(plan):
    cfg = RuntimeConfig(**_BASE, presend=2, fault_plan=plan)
    return matmul.run_ompss(fresh_cluster(2), _MM, config=cfg,
                            init="smp", verify=True)


SCENARIOS = {
    "matmul-mgpu": _mm_mgpu,
    "stream-mgpu": _st_mgpu,
    "nbody-mgpu": _nb_mgpu,
    "matmul-cluster": _mm_cluster,
}

_PLANS = {
    "aborts": FaultPlan(events=(
        FaultEvent(kind="kernel_abort", probability=0.15),
    ), seed=11, paranoid=True),
    "gpu-loss": FaultPlan(events=(
        FaultEvent(kind="gpu_loss", node=0, gpu=1, at=1.5e-3),
    ), seed=12, paranoid=True, protect_outputs=True),
    "mixed": FaultPlan(events=(
        FaultEvent(kind="kernel_abort", probability=0.1),
        FaultEvent(kind="pcie_degrade", node=0, gpu=0, at=1e-3,
                   duration=2e-3, factor=3.0),
    ), seed=13, paranoid=True),
}

_baselines: dict = {}


def _baseline(name):
    if name not in _baselines:
        _baselines[name] = SCENARIOS[name](None)
    return _baselines[name]


@pytest.mark.parametrize("plan_name", sorted(_PLANS))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_recovery_is_bit_identical_with_datamove_on(scenario, plan_name):
    ref = _baseline(scenario)
    res = SCENARIOS[scenario](_PLANS[plan_name])
    assert_same_outputs(ref, res)


def test_flags_do_not_change_results_under_faults():
    """The same chaos plan with and without datamove flags computes the
    same numbers (timings differ; data never does)."""
    plan = _PLANS["aborts"]
    with_flags = _mm_mgpu(plan)
    off = dict(_BASE)
    for key in _DM:
        off.pop(key)
    without = matmul.run_ompss(
        fresh_multi_gpu(2), _MM,
        config=RuntimeConfig(**off, fault_plan=plan), verify=True)
    assert set(with_flags.output) == set(without.output)
    for key, arr in with_flags.output.items():
        assert np.array_equal(arr, without.output[key]), key


def _nested_cuda(plan, **flags):
    """An SMP parent decomposing into CUDA children over its INOUT
    footprint, then two rounds of pure overwriters (the first round's
    version is dead).  The fuzzer only generates SMP children, so this is
    the one workload where recovery requeues a *child* from a GPU manager
    while liveness is tracked."""
    rt = Runtime(fresh_multi_gpu(2), RuntimeConfig(
        functional=True, cache_policy="wt", kernel_jitter=0.02,
        task_overhead=5e-6, fault_plan=plan, **flags))
    x = rt.register_array("x", 256)
    parts = [x.region(i * 64, 64) for i in range(4)]

    def bump(buf):
        buf += 1.0

    def fill(value):
        def body(buf):
            buf[:] = value
        return KernelSpec(name="fill", cost=lambda spec: 1e-5, func=body)

    def children():
        k = KernelSpec(name="bump", cost=lambda spec: 1e-5, func=bump)
        return [Task(name=f"child{i}.{j}", device="cuda", kernel=k,
                     args=(p,), accesses=(Access(p, Direction.INOUT),))
                for j in range(2) for i, p in enumerate(parts)]

    tasks = [Task(name="parent", device="smp", smp_cost=1e-5,
                  accesses=tuple(Access(p, Direction.INOUT) for p in parts),
                  subtasks=children)]
    for value in (3.0, 5.0):
        tasks += [Task(name=f"fill{value}.{i}", device="cuda",
                       kernel=fill(value), args=(p,),
                       accesses=(Access(p, Direction.OUT),))
                  for i, p in enumerate(parts[:2])]

    def main():
        for t in tasks:
            rt.submit(t)
        yield from rt.taskwait()

    rt.run_main(main())
    return rt, np.array(rt.read_array(x))


@pytest.mark.parametrize("plan", [
    FaultPlan(events=(FaultEvent(kind="kernel_abort", nth=2),),
              paranoid=True),
    FaultPlan(events=(FaultEvent(kind="gpu_loss", node=0, gpu=1, at=4e-5),),
              paranoid=True, protect_outputs=True),
], ids=["abort", "gpu-loss"])
def test_requeued_cuda_child_recovers_under_its_parents_claim(plan):
    """Children are not registered with the liveness tracker; a requeued
    child is covered by its still-live parent (``note_resubmit``)."""
    flags = dict(wb_elision=True, cost_aware_eviction=True)
    ref_rt, ref = _nested_cuda(None, **flags)
    assert ref_rt.metrics.value("datamove.writebacks_elided") > 0
    assert np.array_equal(ref, np.repeat([5.0, 5.0, 2.0, 2.0], 64))
    rt, out = _nested_cuda(plan, **flags)
    requeued = [detail for _at, kind, detail in rt.faults.timeline
                if kind == "task_reexecuted"]
    assert any(d.startswith("child") for d in requeued), requeued
    assert np.array_equal(out, ref)


def test_datamove_chaos_runs_are_deterministic():
    plan = _PLANS["mixed"]
    a = _st_mgpu(plan)
    b = _st_mgpu(plan)
    assert a.makespan == b.makespan
    assert_same_outputs(a, b)
