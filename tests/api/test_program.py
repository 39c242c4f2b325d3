"""Tests for the Program facade (stats, makespan, tracer wiring)."""

import numpy as np
import pytest

from repro import Program, task, target
from repro.hardware import build_multi_gpu_node
from repro.runtime import RuntimeConfig, Tracer
from repro.sim import Environment


def make_program(**kwargs):
    env = Environment()
    machine = build_multi_gpu_node(env, num_gpus=2)
    return Program(machine, **kwargs)


@target(device="cuda", copy_deps=True)
@task(inouts=("x",), cost=lambda spec, bound: 1e-4)
def bump(x):
    x += 1.0


def test_default_machine_is_single_gpu_node():
    prog = Program()
    assert prog.machine.total_gpus == 1
    assert not prog.machine.is_cluster


def test_makespan_before_run_raises():
    prog = make_program()
    with pytest.raises(RuntimeError, match="not completed"):
        _ = prog.makespan


def test_run_returns_and_stores_makespan():
    prog = make_program()
    a = prog.array("a", 16, init=np.zeros(16, dtype=np.float32))

    def main():
        bump(a.whole)
        yield from prog.taskwait()

    makespan = prog.run(main())
    assert makespan > 0
    assert prog.makespan == makespan


def test_stats_counters():
    prog = make_program()
    a = prog.array("a", 1024, init=np.zeros(1024, dtype=np.float32))

    def main():
        for _ in range(3):
            bump(a.whole)
        yield from prog.taskwait()

    prog.run(main())
    stats = prog.stats
    assert stats["tasks"] == 3
    assert stats["transfers"] >= 1
    assert stats["bytes_transferred"] >= 4096
    assert stats["network_bytes"] == 0  # single node


def test_program_tracer_wiring():
    tracer = Tracer()
    prog = make_program(subscribers=(tracer,))
    a = prog.array("a", 16, init=np.zeros(16, dtype=np.float32))

    def main():
        bump(a.whole)
        yield from prog.taskwait()

    prog.run(main())
    assert tracer.by_category("task")
    assert tracer.by_category("kernel")


def test_array_rejects_bad_slices():
    prog = make_program()
    a = prog.array("a", 16)
    with pytest.raises(ValueError, match="strided"):
        a[0:16:2]
    with pytest.raises(TypeError):
        a[3]
    with pytest.raises(ValueError, match="negative"):
        a[-4:]


def test_view_properties():
    prog = make_program()
    a = prog.array("a", 16, init=np.arange(16, dtype=np.float32))
    v = a[4:8]
    assert len(v) == 4
    assert v.nbytes == 16
    np.testing.assert_array_equal(v.np, [4, 5, 6, 7])
    assert len(a) == 16
    assert a.nbytes == 64
    assert a.name == "a"
