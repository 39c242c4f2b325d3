"""Determinism guarantees of the fault engine.

Two runs of the same (plan, scenario) pair must produce the *same
simulation*: identical makespan, identical fault/recovery timeline —
in-process, across processes, and across ``PYTHONHASHSEED`` values.
And the empty plan must be a true no-op: the runtime must not even
instantiate the engine, so golden makespans stay bit-identical (the
zero-overhead guarantee; the goldens themselves are enforced by
``tests/bench/test_golden_makespan.py``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.apps import matmul
from repro.bench.harness import fresh_multi_gpu
from repro.faults import FaultEngine, FaultEvent, FaultPlan
from repro.hardware import build_multi_gpu_node
from repro.runtime import Runtime, RuntimeConfig
from repro.sim import Environment

from .helpers import SCENARIOS, assert_same_outputs

_PLAN = FaultPlan(events=(
    FaultEvent(kind="kernel_abort", probability=0.12),
    FaultEvent(kind="gpu_loss", node=0, gpu=1, at=2e-3),
    FaultEvent(kind="pcie_degrade", node=0, gpu=0, at=1e-3,
               duration=2e-3, factor=3.0),
), seed=99, paranoid=True)


def _run_chaotic():
    size = matmul.MatmulSize(n=96, bs=32)
    cfg = RuntimeConfig(functional=True, cache_policy="wb",
                        scheduler="affinity", fault_plan=_PLAN)
    prog_result = matmul.run_ompss(fresh_multi_gpu(2), size, config=cfg,
                                   verify=True)
    return prog_result


def test_same_plan_same_timeline_in_process():
    a, b = _run_chaotic(), _run_chaotic()
    assert a.makespan == b.makespan
    assert_same_outputs(a, b)
    # The recovery effort itself is part of the reproducible simulation.
    for key in ("faults.gpu_lost", "faults.kernel_abort",
                "faults.tasks_reexecuted"):
        assert a.metrics.get(key) == b.metrics.get(key)


_SUBPROCESS_SNIPPET = r"""
import json, sys
from repro.apps import matmul
from repro.bench.harness import fresh_multi_gpu
from repro.faults import FaultEvent, FaultPlan
from repro.runtime.config import RuntimeConfig

plan = FaultPlan(events=(
    FaultEvent(kind="kernel_abort", probability=0.12),
    FaultEvent(kind="gpu_loss", node=0, gpu=1, at=2e-3),
), seed=7, paranoid=True)
cfg = RuntimeConfig(functional=True, cache_policy="wb",
                    scheduler="affinity", fault_plan=plan)
res = matmul.run_ompss(fresh_multi_gpu(2), matmul.MatmulSize(n=96, bs=32),
                       config=cfg, verify=True)
digest = __import__("hashlib").sha256(res.output["c"].tobytes()).hexdigest()
print(json.dumps({"makespan": res.makespan, "digest": digest,
                  "aborts": res.metrics.get("faults.kernel_abort", 0)}))
"""


def _run_subprocess(hashseed: str) -> dict:
    root = Path(__file__).resolve().parents[2]
    out = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SNIPPET],
        env={"PYTHONPATH": str(root / "src"),
             "PYTHONHASHSEED": hashseed,
             "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, check=True, cwd=root)
    return json.loads(out.stdout)


def test_timeline_independent_of_pythonhashseed():
    a = _run_subprocess("0")
    b = _run_subprocess("424242")
    assert a == b


def test_engine_timeline_digest_is_stable():
    """Two engines fed the same plan over the same machine record the same
    fault/recovery timeline, time stamps included."""

    def run():
        env = Environment()
        machine = build_multi_gpu_node(env, num_gpus=2)
        plan = FaultPlan(events=(
            FaultEvent(kind="gpu_loss", node=0, gpu=1, at=1e-3),
        ), seed=3, paranoid=True)
        rt = Runtime(machine, RuntimeConfig(
            functional=False, kernel_jitter=0, task_overhead=0,
            fault_plan=plan))
        from repro.cuda.kernels import KernelSpec
        from repro.runtime.task import Access, Direction, Task
        k = KernelSpec("noop", cost=lambda spec, **kw: 1e-4)
        obj = rt.register_array("x", 1024)

        def main():
            for i in range(24):
                rt.submit(Task(name=f"t{i}", device="cuda", kernel=k,
                               accesses=(Access(obj.whole, Direction.INOUT),)))
            yield from rt.taskwait()

        rt.run_main(main())
        return rt.faults.timeline

    t1, t2 = run(), run()
    assert t1  # the loss actually happened
    assert t1 == t2


def test_empty_plan_never_builds_an_engine():
    env = Environment()
    machine = build_multi_gpu_node(env, num_gpus=1)
    rt = Runtime(machine, RuntimeConfig(fault_plan=FaultPlan()))
    assert rt.faults is None
    rt2 = Runtime(build_multi_gpu_node(Environment(), num_gpus=1),
                  RuntimeConfig(fault_plan=None))
    assert rt2.faults is None


def test_empty_plan_makespan_equals_no_plan():
    """The documented zero-overhead guarantee, end to end: with an empty
    plan the simulation schedules not a single extra event."""
    for name, run in SCENARIOS.items():
        bare = run(None)
        empty = run(FaultPlan())
        assert bare.makespan == empty.makespan, name
        assert_same_outputs(bare, empty)


def test_engine_start_is_idempotent():
    env = Environment()
    machine = build_multi_gpu_node(env, num_gpus=2)
    plan = FaultPlan(events=(
        FaultEvent(kind="gpu_loss", node=0, gpu=1, at=5.0),
    ), seed=1)
    rt = Runtime(machine, RuntimeConfig(fault_plan=plan))
    assert isinstance(rt.faults, FaultEngine)
    rt.start()
    before = len(env._queue)
    rt.faults.start()  # second call must not schedule the loss again
    assert len(env._queue) == before
