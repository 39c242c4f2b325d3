"""What one submitted task keeps alive.

A program submits its whole task graph before the first task runs, so the
descriptors are the run's memory peak: tasks and clause entries are slotted,
clause entries and cost bindings are interned per data handle, the
constants of one ``task`` construct are one shared codelet, and arc
deduplication keeps no per-task set.  A task's completion event exists only
once something waits on it, the graph counts its live tasks instead of
keeping their ids, perf mode keeps no body arguments, and the state of
decomposition, fault retries and liveness lives outside flat tasks.
"""

import gc
import sys
import tracemalloc
import weakref
from collections import defaultdict

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Program, target, task
from repro.apps import cholesky
from repro.hardware import build_multi_gpu_node
from repro.memory import DataObject
from repro.apps.perlin.common import _PERM
from repro.runtime import (Access, DependencyGraph, Direction, RuntimeConfig,
                           Task, TaskState, probes)
from repro.sim import Environment, Event

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


def test_flat_task_is_fourteen_slots():
    t = Task(name="t")
    assert len(Task.__slots__) <= 14
    assert sys.getsizeof(t) <= 144
    # Nothing a switched-off feature reads: no decomposition record, and
    # the waiter's event, retry count and liveness claim live elsewhere.
    assert t.nest is None
    for gone in ("done", "retries", "_liveness_entries", "_staged"):
        assert not hasattr(t, gone)


def test_tasks_of_one_construct_share_its_codelet():
    prog = make_program()
    tasks, _ = submit_all(prog, lambda a, c: [
        axpy(a[0:32], c[0:32], 32), axpy(a[32:64], c[32:64], 16),
        copy(a[0:32], c[32:64], 32)])
    first, second, smp = tasks
    assert first.codelet is second.codelet is axpy.codelet
    assert first.codelet.kernel is not None and first.codelet.func is None
    assert smp.codelet is copy.codelet and smp.codelet.func is copy.fn
    assert (first.name, smp.name) == ("axpy", "copy")


def test_two_programs_share_no_construct_record():
    def build(prog):
        """A program of hand-built tasks, as dagfuzz builds them."""
        x = prog.array("x", 64)
        tasks = [Task(name="w", smp_cost=1e-6, func=lambda buf: None,
                      args=(x[0:32].region,),
                      accesses=(Access(x[0:32].region, Direction.OUT),)),
                 Task(name="r", smp_cost=1e-6,
                      accesses=(Access(x[0:32].region, Direction.IN),))]

        def main():
            for t in tasks:
                prog.submit(t)
            yield from prog.taskwait()

        prog.run(main())
        return tasks

    first, second = build(make_program()), build(make_program())
    records = [{id(t.codelet) for t in tasks} for tasks in (first, second)]
    assert len(records[0]) == 2 and not records[0] & records[1]
    # Each record is its task's own: no table keeps it beyond the task.
    assert all(gc.get_referrers(t.codelet) == [t] for t in first + second)


def test_perlin_table_is_the_seeded_permutation_doubled():
    perm = np.random.default_rng(20120529).permutation(256)
    assert _PERM.dtype == np.int64
    assert np.array_equal(_PERM, np.concatenate([perm, perm]))


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


# -- what a task keeps from submission to completion ------------------------

def test_done_is_none_after_submit_and_made_by_the_first_waiter():
    prog = make_program()
    a, c = prog.array("a", 64), prog.array("c", 64)
    waited = prog.rt._waited
    made = {}

    def main():
        # A slow writer of c[0:32], and a fast task nobody waits on.
        writer = made["writer"] = copy(a[0:32], c[0:32], 10**6)
        copy(a[32:64], c[32:64], 1)
        assert not waited
        wait = prog.env.process(prog.taskwait_on(c[0:32]))
        yield prog.env.timeout(0)
        made["event"] = waited[writer.tid]      # made by the waiter
        yield wait
        made["woke"] = prog.env.now
        yield from prog.taskwait()

    prog.run(main())
    # The waiter woke at the writer's completion, which fired and dropped
    # the event; no task keeps an Event.
    assert isinstance(made["event"], Event) and made["event"].processed
    assert made["woke"] == pytest.approx(1.0, rel=0.1)
    assert not waited
    writer = made["writer"]
    assert writer.state is TaskState.FINISHED
    assert not any(isinstance(o, Event) for o in gc.get_referents(writer))


def test_perf_mode_drops_body_arguments_functional_mode_keeps_them():
    kept = {}
    for functional in (False, True):
        prog = Program(build_multi_gpu_node(Environment(), num_gpus=1),
                       RuntimeConfig(functional=functional))
        (t,), (a, c) = submit_all(prog, lambda a, c: [
            copy(a[0:32], c[0:32], 32)])
        kept[functional] = t.args
    assert kept[False] == ()
    assert kept[True] == (a[0:32].region, c[0:32].region, 32)


def test_duplicate_child_completion_fires_nothing():
    prog = make_program()
    x = prog.array("x", 64)
    children = []

    def decompose():
        children.extend([
            Task(name="w", smp_cost=1e-6,
                 accesses=(Access(x[0:32].region, Direction.OUT),)),
            Task(name="r", smp_cost=1e-6,
                 accesses=(Access(x[0:32].region, Direction.IN),)),
        ])
        return children

    parent = Task(name="parent", smp_cost=1e-6, subtasks=decompose)

    def main():
        prog.submit(parent)
        yield from prog.taskwait(noflush=True)

    prog.run(main())
    writer, reader = children
    assert writer.successors == [reader]
    assert all(t.state is TaskState.FINISHED for t in children)
    image = prog.rt.master_image
    env = prog.env
    before = env.events_processed
    image._account_child(writer, image.smp_workers[0])
    env.run()
    assert env.events_processed == before     # no event, no wakeup
    assert reader.pending_preds == 0 and parent.nest.left == 0
    assert prog.metrics.value("runtime.duplicate_completions") == 1


def test_live_count_returns_to_zero_and_registration_stays_once():
    o = DataObject(name="x", num_elements=20)
    w = Task(name="w", accesses=(Access(o.region(0, 10), Direction.OUT),))
    r = Task(name="r", accesses=(Access(o.region(0, 10), Direction.IN),))
    g = DependencyGraph()
    assert g.add_task(w) and not g.add_task(r)
    assert g.live_count == 2
    # Registered READY, or CREATED with a predecessor pending: both refused.
    for t in (w, r):
        with pytest.raises(AssertionError, match="registered twice"):
            g.add_task(t)
    assert g.task_finished(w) == [r]
    assert g.task_finished(w) == []         # releases nothing twice
    assert g.live_count == 1
    g.task_finished(r)
    assert g.live_count == 0


# -- the per-task byte budget ----------------------------------------------

#: tracemalloc bytes per submitted task when the first task starts, on the
#: perf-mode Cholesky below: 604 on CPython 3.11 (693 while each task had
#: 25 slots, 954 while it also kept a completion event, a live-set entry
#: and its body arguments).  The budget leaves 14 % headroom for other
#: interpreters.
BYTES_PER_TASK_BUDGET = 690


class _FirstStart:
    """Reads traced memory when the first task starts: every task of the
    graph has been submitted by then, and none has run."""

    traced = None

    def task_started(self, task, place):
        if self.traced is None:
            self.traced = tracemalloc.get_traced_memory()[0]


def test_submitted_task_stays_within_byte_budget():
    config = RuntimeConfig(functional=False)
    # Warm up first: lazy imports and one-time caches are not per task.
    cholesky.run_ompss(build_multi_gpu_node(Environment(), num_gpus=4),
                       cholesky.CholeskySize(n=1024, bs=256), config)
    size = cholesky.CholeskySize(n=4096, bs=256)
    machine = build_multi_gpu_node(Environment(), num_gpus=4)
    first = _FirstStart()
    # A full collection also empties the interpreter's free lists, whose
    # reuse tracemalloc would not see: the count is then the same whatever
    # ran before in this process.
    gc.collect()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    try:
        with probes.install(first):
            res = cholesky.run_ompss(machine, size, config)
    finally:
        if not was_tracing:
            tracemalloc.stop()
    tasks = res.metrics["runtime.tasks_submitted"]
    assert tasks == 816
    per_task = (first.traced - base) / tasks
    assert per_task <= BYTES_PER_TASK_BUDGET, (
        f"{per_task:.0f} B per submitted task, budget "
        f"{BYTES_PER_TASK_BUDGET} (docs/PERFORMANCE.md \"Task footprint\")")
