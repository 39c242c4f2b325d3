"""Nested tasks: remote data decomposition (paper Section III.D.1).

"Tasks executed in a remote node can create new tasks that use the data
transferred or created by their parent task.  This allows scalable data
decomposition to be coded in the application.  These local tasks will be
executed by any thread that becomes available in the node."
"""

import numpy as np
import pytest

from repro.cuda import KernelSpec
from repro.hardware import build_gpu_cluster, build_multi_gpu_node
from repro.runtime import Access, Direction, Runtime, RuntimeConfig, Task
from repro.sim import Environment


def make_rt(machine="gpu1", **cfg):
    env = Environment()
    if machine.startswith("cluster"):
        m = build_gpu_cluster(env, num_nodes=int(machine[7:]))
    else:
        m = build_multi_gpu_node(env, num_gpus=int(machine[3:]))
    defaults = dict(kernel_jitter=0, task_overhead=0)
    defaults.update(cfg)
    return Runtime(m, RuntimeConfig(**defaults))


def run_all(rt, tasks):
    def main():
        for t in tasks:
            rt.submit(t)
        yield from rt.taskwait()

    return rt.run_main(main())


def decomposing_task(rt, obj, nt=4, value=1.0):
    """An SMP parent that decomposes a fill over ``nt`` child tasks."""
    n = obj.num_elements
    bs = n // nt

    def child_body(buf, v):
        buf[:] = v

    def make_children():
        children = []
        for i in range(nt):
            region = obj.region(i * bs, bs)
            children.append(Task(
                name=f"child{i}", device="smp", smp_cost=1e-5,
                func=child_body,
                accesses=(Access(region, Direction.OUT),),
                args=(region, value + i),
            ))
        return children

    return Task(name="parent", device="smp", smp_cost=1e-5,
                subtasks=make_children)


def test_children_run_and_produce_data():
    rt = make_rt("gpu1")
    obj = rt.register_array("x", 64)
    run_all(rt, [decomposing_task(rt, obj, nt=4, value=1.0)])
    arr = rt.read_array(obj)
    for i in range(4):
        np.testing.assert_allclose(arr[i * 16:(i + 1) * 16], 1.0 + i)


def test_parent_completion_gates_sibling_successors():
    """A sibling ordered after the parent must observe the children's writes
    (the parent completes only after its children).  Ordering uses a ticket
    region — parent-whole vs child-part regions would be a (rejected)
    partial overlap, per the model's constraint."""
    rt = make_rt("gpu1")
    obj = rt.register_array("x", 64)
    ticket = rt.register_array("ticket", 1)
    total = rt.register_array("sum", 1)
    parent = decomposing_task(rt, obj, nt=4, value=1.0)
    parent.accesses = (Access(ticket.whole, Direction.OUT),)

    def summer(b0, b1, b2, b3, _ticket, out):
        out[0] = b0.sum() + b1.sum() + b2.sum() + b3.sum()

    parts = [obj.region(i * 16, 16) for i in range(4)]
    consumer = Task(
        name="consumer", device="smp", smp_cost=1e-5, func=summer,
        accesses=tuple(Access(p, Direction.IN) for p in parts)
        + (Access(ticket.whole, Direction.IN),
           Access(total.whole, Direction.OUT)),
        args=(*parts, ticket.whole, total.whole),
    )
    run_all(rt, [parent, consumer])
    expected = sum((1.0 + i) * 16 for i in range(4))
    assert rt.read_array(total)[0] == pytest.approx(expected)


def test_children_have_their_own_dependence_scope():
    """Chained children serialize among themselves (sibling scope)."""
    rt = make_rt("gpu1")
    obj = rt.register_array("x", 16)

    def bump(buf):
        buf += 1.0

    def make_children():
        return [Task(name=f"c{i}", device="smp", smp_cost=1e-5, func=bump,
                     accesses=(Access(obj.whole, Direction.INOUT),),
                     args=(obj.whole,))
                for i in range(5)]

    parent = Task(name="parent", device="smp", smp_cost=1e-5,
                  subtasks=make_children)
    run_all(rt, [parent])
    np.testing.assert_allclose(rt.read_array(obj), 5.0)


def test_remote_parent_decomposes_on_its_node():
    """On a cluster, a remote parent's children execute on the remote image
    without master round-trips per child."""
    rt = make_rt("cluster2", scheduler="affinity")
    obj = rt.register_array("x", 64)
    parent = decomposing_task(rt, obj, nt=8, value=2.0)
    before_short = rt.metrics.value("am.short_sent")
    run_all(rt, [parent])
    arr = rt.read_array(obj)
    for i in range(8):
        np.testing.assert_allclose(arr[i * 8:(i + 1) * 8], 2.0 + i)
    # Control traffic stays O(1) in the child count: one run_task + one
    # completion for the parent (plus data flush messages), not per child.
    control = rt.metrics.value("am.short_sent") - before_short
    assert control <= 4


def test_gpu_parent_can_decompose_too():
    rt = make_rt("gpu2")
    obj = rt.register_array("x", 32)
    noop = KernelSpec(name="noop", cost=lambda spec: 1e-6)

    def make_children():
        def fill(buf):
            buf[:] = 7.0
        return [Task(name="c", device="smp", smp_cost=1e-5, func=fill,
                     accesses=(Access(obj.whole, Direction.OUT),),
                     args=(obj.whole,))]

    parent = Task(name="gpu_parent", device="cuda", kernel=noop,
                  subtasks=make_children)
    run_all(rt, [parent])
    np.testing.assert_allclose(rt.read_array(obj), 7.0)


def test_empty_decomposition_is_fine():
    rt = make_rt("gpu1")
    parent = Task(name="parent", device="smp", smp_cost=1e-5,
                  subtasks=lambda: [])
    run_all(rt, [parent])
    assert rt.metrics.value("runtime.tasks_finished") == 1
