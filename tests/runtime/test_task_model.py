"""Unit tests for the Task dataclass and clause views."""

import pytest

from repro.cuda import KernelSpec
from repro.hardware import XEON_E5620
from repro.memory import DataObject
from repro.runtime import Access, Direction, Task, TaskState


def obj(n=100, name="x"):
    return DataObject(name=name, num_elements=n)


def test_direction_predicates():
    assert Direction.IN.reads and not Direction.IN.writes
    assert Direction.OUT.writes and not Direction.OUT.reads
    assert Direction.INOUT.reads and Direction.INOUT.writes


def test_task_ids_unique_and_increasing():
    t1 = Task(name="a")
    t2 = Task(name="b")
    assert t2.tid > t1.tid


def test_unsupported_device_rejected():
    with pytest.raises(ValueError, match="unsupported device"):
        Task(name="bad", device="fpga")


def test_cuda_task_requires_kernel():
    with pytest.raises(ValueError, match="needs a kernel"):
        Task(name="bad", device="cuda")


def test_inputs_outputs_views():
    o = obj()
    a_in = Access(o.region(0, 10), Direction.IN)
    a_out = Access(o.region(10, 10), Direction.OUT)
    a_io = Access(o.region(20, 10), Direction.INOUT)
    t = Task(name="t", accesses=(a_in, a_out, a_io))
    assert t.inputs == [a_in, a_io]
    assert [a for a in t.accesses if a.direction.writes] == [a_out, a_io]


def test_smp_duration_constant_and_callable():
    t1 = Task(name="c", smp_cost=0.5)
    assert t1.smp_duration(XEON_E5620) == 0.5
    t2 = Task(name="f", smp_cost=lambda cpu: cpu.cores * 0.1)
    assert t2.smp_duration(XEON_E5620) == pytest.approx(0.8)


def test_initial_state():
    t = Task(name="t")
    assert t.state is TaskState.CREATED
    assert t.pending_preds == 0
    assert t.successors == []
    assert t.parent is None and t.nest is None


def test_repr_mentions_name_and_state():
    t = Task(name="mytask")
    assert "mytask" in repr(t)
    assert "created" in repr(t)
