"""What one submitted task keeps alive.

A program submits its whole task graph before the first task runs, so the
descriptors are the run's memory peak: tasks and clause entries are slotted,
clause entries and cost bindings are interned per data handle, and arc
deduplication keeps no per-task set.
"""

import gc
import weakref
from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Program, target, task
from repro.hardware import build_multi_gpu_node
from repro.memory import DataObject
from repro.runtime import (Access, DependencyGraph, Direction, RuntimeConfig,
                           Task, TaskState)
from repro.sim import Environment

DIRECTIONS = (Direction.IN, Direction.OUT, Direction.INOUT)


def make_program():
    env = Environment()
    return Program(build_multi_gpu_node(env, num_gpus=1),
                   RuntimeConfig(functional=False))


@target(device="cuda")
@task(inputs=("a",), inouts=("c",), cost=lambda spec, bound: 1e-6)
def axpy(a, c, n):
    pass


@task(inputs=("a",), outputs=("c",), cost=lambda cpu, bound: 1e-6 * bound["n"])
def copy(a, c, n):
    pass


def submit_all(prog, calls):
    """Run a main that makes each ``calls(a, c)`` task; returns them."""
    a = prog.array("a", 64)
    c = prog.array("c", 64)
    made = []

    def main():
        made.extend(calls(a, c))
        yield from prog.taskwait()

    prog.run(main())
    return made, (a, c)


def test_task_and_access_have_no_instance_dict():
    region = DataObject(name="x", num_elements=8).whole
    access = Access(region, Direction.IN)
    t = Task(name="t", accesses=(access,))
    assert not hasattr(t, "__dict__")
    assert not hasattr(access, "__dict__")


def test_tasks_naming_one_view_and_direction_share_one_access():
    prog = make_program()
    (t1, t2, t3), _ = submit_all(prog, lambda a, c: [
        axpy(a[0:32], c[0:32], 32),
        axpy(a[0:32], c[32:64], 32),
        copy(c[0:32], a[32:64], 32),
    ])
    assert t1.accesses[0] is t2.accesses[0]          # in a[0:32]
    assert t1.accesses[1] is not t2.accesses[1]      # other region
    # c[0:32]: inout for t1, input for t3 — two entries.
    assert t3.accesses[0].region is t1.accesses[1].region
    assert t3.accesses[0] is not t1.accesses[1]


def test_equal_scalars_share_one_cost_binding():
    prog = make_program()
    tasks, _ = submit_all(prog, lambda a, c: [
        axpy(a[0:32], c[0:32], 32),
        axpy(a[32:64], c[32:64], 32),
        axpy(a[0:32], c[0:32], 16),
        axpy(a[0:32], c[0:32], 32.0),     # equal value, other type
        copy(a[0:32], c[32:64], 32),
        copy(a[32:64], c[0:32], 32),
        axpy(a[0:32], c[0:32], [32]),     # unhashable: its own binding
    ])
    same, other, smaller, as_float, smp1, smp2, listed = tasks
    assert same.cost_kwargs is other.cost_kwargs == {"bound": {"n": 32}}
    assert smaller.cost_kwargs == {"bound": {"n": 16}}
    assert as_float.cost_kwargs is not same.cost_kwargs
    assert type(as_float.cost_kwargs["bound"]["n"]) is float
    assert smp1.smp_cost is smp2.smp_cost
    assert listed.cost_kwargs == {"bound": {"n": [32]}}
    assert prog.metrics.value("runtime.tasks_finished") == len(tasks)


def test_successive_programs_share_no_intern_table_entry():
    def calls(a, c):
        return [axpy(a[0:32], c[0:32], 32), copy(a[0:32], c[32:64], 32)]

    first = make_program()
    first_tasks, first_handles = submit_all(first, calls)
    second = make_program()
    second_tasks, second_handles = submit_all(second, calls)

    def entries(handles):
        return {id(v) for h in handles
                for v in (*h.accesses.values(), *h.cost_bindings.values())}

    assert all(h.accesses for h in first_handles)
    assert first_handles[1].cost_bindings       # c: both calls' last clause
    assert not entries(first_handles) & entries(second_handles)
    # The tables die with their program: nothing grows across runs.
    gone = weakref.ref(first)
    del first, first_tasks, first_handles
    gc.collect()
    assert gone() is None


def test_one_arc_per_predecessor_however_many_clauses_hit_it():
    o = DataObject(name="x", num_elements=30)
    r1, r2, r3 = (o.region(i * 10, 10) for i in range(3))
    arcs = []
    g = DependencyGraph(on_arc=(lambda *arc: arcs.append(arc),))
    pred = Task(name="pred", accesses=(Access(r1, Direction.OUT),
                                       Access(r2, Direction.OUT),
                                       Access(r3, Direction.IN)))
    succ = Task(name="succ", accesses=(Access(r1, Direction.IN),
                                       Access(r2, Direction.INOUT),
                                       Access(r3, Direction.OUT)))
    assert g.add_task(pred)
    assert not g.add_task(succ)
    assert pred.successors == [succ] and succ.pending_preds == 1
    assert [(a[3], a[4]) for a in arcs] == [
        ("raw", True), ("raw", False), ("waw", False), ("war", False)]


class _SetDedupGraph(DependencyGraph):
    """Reference: the set-based arc deduplication tasks used to carry."""

    def __init__(self, on_arc=()):
        super().__init__(on_arc)
        self.successor_ids = defaultdict(set)

    def _add_arc(self, pred, succ, region, kind):
        if pred.state is TaskState.FINISHED or pred is succ:
            return
        created = succ.tid not in self.successor_ids[pred.tid]
        if created:
            self.successor_ids[pred.tid].add(succ.tid)
            pred.successors.append(succ)
            succ.pending_preds += 1
        for fn in self.on_arc:
            fn(pred, succ, region, kind, created)


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(
    st.tuples(st.dictionaries(st.integers(min_value=0, max_value=4),
                              st.sampled_from(DIRECTIONS),
                              min_size=1, max_size=4),
              st.integers(min_value=0, max_value=2)),   # tasks to finish
    min_size=1, max_size=30))
def test_successor_order_matches_set_based_dedup(ops):
    o = DataObject(name="x", num_elements=50)
    regions = [o.region(i * 10, 10) for i in range(5)]

    def replay(graph_cls):
        arcs = []
        g = graph_cls(on_arc=(lambda p, s, r, k, c: arcs.append(
            (p.name, s.name, r.start, k, c)),))
        tasks, ready = [], []
        for i, (clauses, finish) in enumerate(ops):
            t = Task(name=f"t{i}", accesses=tuple(
                Access(regions[r], d) for r, d in clauses.items()))
            tasks.append(t)
            if g.add_task(t):
                ready.append(t)
            for _ in range(min(finish, len(ready))):
                ready.extend(g.task_finished(ready.pop(0)))
        return arcs, [[s.name for s in t.successors] for t in tasks], \
            [t.pending_preds for t in tasks]

    assert replay(DependencyGraph) == replay(_SetDedupGraph)
