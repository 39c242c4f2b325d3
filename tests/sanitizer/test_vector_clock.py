"""Vector-clock happens-before: unit semantics and the hard edge cases.

The cases the issue calls out explicitly: taskwait joins, nested
(decomposed) tasks, and cluster presend ordering — presend moves tasks
early but promises nothing about ordering, so a race two presends apart
must still be flagged even when the node ran them back to back.
"""

import numpy as np
import pytest

from repro.api import Program, task
from repro.hardware import build_gpu_cluster, build_multi_gpu_node
from repro.runtime import Access, Direction, Runtime, RuntimeConfig, Task
from repro.sanitizer import VectorClock, install
from repro.sim import Environment


# ----------------------------------------------------------------------
# Pure clock algebra
# ----------------------------------------------------------------------
def test_clock_basics():
    a = VectorClock()
    assert a.get(3) == 0 and not a.covers(3, 1)
    a.set(3, 1)
    assert a.covers(3, 1) and not a.covers(3, 2)
    b = a.copy()
    b.set(5, 1)
    assert b.covers(3, 1) and b.covers(5, 1) and not a.covers(5, 1)


def test_clock_join_is_pointwise_max():
    a = VectorClock({1: 2, 2: 1})
    b = VectorClock({1: 1, 3: 4})
    assert a.join(b) is a
    assert [a.get(ctx) for ctx in (1, 2, 3)] == [2, 1, 4]


def test_clock_concurrency():
    a = VectorClock({1: 1})
    b = VectorClock({2: 1})
    # neither happens before: each lacks the other's epoch
    assert not a.covers(2, 1) and not b.covers(1, 1)


# ----------------------------------------------------------------------
# Program-level fixtures for the synchronization constructs
# ----------------------------------------------------------------------
@task(outputs=("buf",), cost=1e-3, label="vc_writer")
def vc_writer(buf, value):
    buf[:] = value


def _prog():
    machine = build_multi_gpu_node(Environment(), num_gpus=1)
    return Program(machine, RuntimeConfig())


def _kinds(san):
    return sorted(f.kind for f in san.findings())


def test_taskwait_orders_host_reads():
    """The same read is a hazard before taskwait and safe after it."""
    with install() as san:
        prog = _prog()
        x = prog.array("x", 32)

        def main():
            vc_writer(x[0:32], 1.0)
            yield from prog.taskwait()
            float(x.np.sum())

        prog.run(main())
    assert san.findings() == []


def test_missing_taskwait_is_flagged_despite_lucky_schedule():
    with install() as san:
        prog = _prog()
        x = prog.array("x", 32)

        def main():
            vc_writer(x[0:32], 1.0)
            float(x.np.sum())        # no taskwait in between
            yield from prog.taskwait()

        prog.run(main())
    assert _kinds(san) == ["missing-taskwait"]


def test_read_before_submit_is_not_a_hazard():
    """Submission order is a happens-before edge: reading before the
    writer even exists cannot race with it."""
    with install() as san:
        prog = _prog()
        x = prog.array("x", 32)

        def main():
            float(x.np.sum())        # before any task exists
            vc_writer(x[0:32], 1.0)
            yield from prog.taskwait()

        prog.run(main())
    assert san.findings() == []


def test_taskwait_on_orders_only_named_regions():
    """``taskwait on(x)`` covers x's producer but leaves y's unordered."""
    with install() as san:
        prog = _prog()
        x = prog.array("x", 32)
        y = prog.array("y", 32)

        def main():
            vc_writer(x[0:32], 1.0)
            vc_writer(y[0:32], 2.0)
            yield from prog.taskwait_on(x[0:32])
            float(x.np.sum())        # ordered: waited on x
            float(y.np.sum())        # hazard: y's writer was not waited
            yield from prog.taskwait()

        prog.run(main())
    findings = san.findings()
    assert [f.kind for f in findings] == ["missing-taskwait"]
    assert findings[0].obj == "y"


def test_taskwait_on_covers_already_finished_writer():
    """A producer that finished before ``taskwait on`` is still joined —
    the construct's contract is 'producers of the region are done'."""
    with install() as san:
        prog = _prog()
        x = prog.array("x", 32)

        def main():
            vc_writer(x[0:32], 1.0)
            yield prog.env.timeout(1.0)      # writer long finished
            yield from prog.taskwait_on(x[0:32])
            float(x.np.sum())

        prog.run(main())
    assert san.findings() == []


# ----------------------------------------------------------------------
# Nested (decomposed) tasks
# ----------------------------------------------------------------------
def _make_rt(machine="gpu1", **cfg):
    env = Environment()
    if machine.startswith("cluster"):
        m = build_gpu_cluster(env, num_nodes=int(machine[7:]))
    else:
        m = build_multi_gpu_node(env, num_gpus=int(machine[3:]))
    defaults = dict(kernel_jitter=0, task_overhead=0)
    defaults.update(cfg)
    return Runtime(m, RuntimeConfig(**defaults))


def _run_all(rt, tasks):
    def main():
        for t in tasks:
            rt.submit(t)
        yield from rt.taskwait()

    return rt.run_main(main())


def _decomposing_parent(obj, nt=4, accesses=()):
    bs = obj.num_elements // nt

    def child_body(buf, v):
        buf[:] = v

    def make_children():
        return [Task(name=f"child{i}", device="smp", smp_cost=1e-4,
                     func=child_body,
                     accesses=(Access(obj.region(i * bs, bs),
                                      Direction.OUT),),
                     args=(obj.region(i * bs, bs), float(i)))
                for i in range(nt)]

    return Task(name="parent", device="smp", smp_cost=1e-4,
                subtasks=make_children, accesses=tuple(accesses))


def test_nested_children_are_ordered_through_parent_completion():
    """A sibling gated on the parent (ticket region) is HB-after every
    child — no race between child writes and the consumer's reads."""
    with install() as san:
        rt = _make_rt("gpu1")
        obj = rt.register_array("x", 64)
        ticket = rt.register_array("ticket", 1)
        total = rt.register_array("sum", 1)
        parent = _decomposing_parent(
            obj, nt=4, accesses=(Access(ticket.whole, Direction.OUT),))

        def summer(b0, b1, b2, b3, t, out):
            out[0] = b0.sum() + b1.sum() + b2.sum() + b3.sum() + 0 * t[0]

        parts = [obj.region(i * 16, 16) for i in range(4)]
        consumer = Task(
            name="consumer", device="smp", smp_cost=1e-4, func=summer,
            accesses=tuple(Access(p, Direction.IN) for p in parts)
            + (Access(ticket.whole, Direction.IN),
               Access(total.whole, Direction.OUT)),
            args=(*parts, ticket.whole, total.whole))
        _run_all(rt, [parent, consumer])
        assert rt.read_array(total)[0] == pytest.approx(
            sum(16.0 * i for i in range(4)))
    assert san.findings() == []


def test_nested_child_races_with_unordered_sibling():
    """A sibling *not* gated on the parent is concurrent with the
    children — a child write vs sibling read is a real race."""
    with install() as san:
        rt = _make_rt("gpu1")
        obj = rt.register_array("x", 64)
        parent = _decomposing_parent(obj, nt=4)

        def reader_body(buf):
            float(buf.sum())

        sibling = Task(name="sibling_reader", device="smp", smp_cost=1e-4,
                       func=reader_body,
                       accesses=(Access(obj.region(0, 16), Direction.IN),),
                       args=(obj.region(0, 16),))
        _run_all(rt, [parent, sibling])
    findings = san.findings()
    assert [f.kind for f in findings] == ["race"]
    assert findings[0].task == "sibling_reader ~ child0"


# ----------------------------------------------------------------------
# Cluster presend ordering
# ----------------------------------------------------------------------
def test_presend_implies_no_ordering_between_tasks():
    """Two input-declared tasks that both write the region race even when
    the presend window shipped them to one node that ran them back to
    back — presend is a throughput lever, not a synchronization."""
    with install() as san:
        rt = _make_rt("cluster2", presend=2)
        obj = rt.register_array("x", 32)

        def sneaky_write(buf, v):
            buf[:] = v

        tasks = [Task(name=f"w{i}", device="smp", smp_cost=1e-4,
                      func=sneaky_write,
                      accesses=(Access(obj.whole, Direction.IN),),
                      args=(obj.whole, float(i)))
                 for i in range(2)]
        _run_all(rt, tasks)
    kinds = _kinds(san)
    assert kinds == ["race", "under-declared-write", "under-declared-write"]
    race = [f for f in san.findings() if f.kind == "race"][0]
    assert race.task == "w0 ~ w1"
