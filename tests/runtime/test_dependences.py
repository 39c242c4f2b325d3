"""Unit and property tests for the task dependency graph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cuda import KernelSpec
from repro.memory import DataObject, PartialOverlapError, Region
from repro.runtime import Access, DependencyGraph, Direction, Task, TaskState


def obj(n=1000, name="x"):
    return DataObject(name=name, num_elements=n)


def make_task(name, *accesses):
    return Task(name=name, accesses=tuple(accesses))


def acc(region, direction):
    return Access(region, direction)


def test_independent_tasks_are_ready():
    g = DependencyGraph()
    o = obj()
    t1 = make_task("t1", acc(Region(o, 0, 10), Direction.OUT))
    t2 = make_task("t2", acc(Region(o, 10, 10), Direction.OUT))
    assert g.add_task(t1)
    assert g.add_task(t2)


def test_raw_dependency():
    g = DependencyGraph()
    o = obj()
    w = make_task("w", acc(o.whole, Direction.OUT))
    r = make_task("r", acc(o.whole, Direction.IN))
    assert g.add_task(w)
    assert not g.add_task(r)
    assert r.pending_preds == 1
    ready = g.task_finished(w)
    assert ready == [r]
    assert r.state is TaskState.READY


def test_war_dependency():
    g = DependencyGraph()
    o = obj()
    g.add_task(make_task("producer", acc(o.whole, Direction.OUT)))
    r = make_task("reader", acc(o.whole, Direction.IN))
    w2 = make_task("overwriter", acc(o.whole, Direction.OUT))
    g.add_task(r)
    assert not g.add_task(w2)
    # w2 depends on both the producer (WAW) and the reader (WAR).
    assert w2.pending_preds == 2


def test_waw_dependency():
    g = DependencyGraph()
    o = obj()
    w1 = make_task("w1", acc(o.whole, Direction.OUT))
    w2 = make_task("w2", acc(o.whole, Direction.OUT))
    g.add_task(w1)
    assert not g.add_task(w2)
    assert g.task_finished(w1) == [w2]


def test_multiple_readers_share():
    g = DependencyGraph()
    o = obj()
    w = make_task("w", acc(o.whole, Direction.OUT))
    readers = [make_task(f"r{i}", acc(o.whole, Direction.IN))
               for i in range(5)]
    g.add_task(w)
    for r in readers:
        g.add_task(r)
    freed = g.task_finished(w)
    assert set(t.tid for t in freed) == set(t.tid for t in readers)


def test_inout_chains_serialize():
    g = DependencyGraph()
    o = obj()
    chain = [make_task(f"c{i}", acc(o.whole, Direction.INOUT))
             for i in range(4)]
    assert g.add_task(chain[0])
    for t in chain[1:]:
        assert not g.add_task(t)
    for i in range(3):
        assert g.task_finished(chain[i]) == [chain[i + 1]]


def test_duplicate_region_in_one_task_rejected():
    o = obj()
    with pytest.raises(ValueError, match="twice"):
        Task(name="bad", accesses=(
            Access(o.whole, Direction.IN),
            Access(o.whole, Direction.OUT),
        ))


def test_partial_overlap_rejected():
    g = DependencyGraph()
    o = obj()
    g.add_task(make_task("a", acc(Region(o, 0, 100), Direction.OUT)))
    with pytest.raises(PartialOverlapError):
        g.add_task(make_task("b", acc(Region(o, 50, 100), Direction.IN)))


def test_finished_predecessor_creates_no_arc():
    g = DependencyGraph()
    o = obj()
    w = make_task("w", acc(o.whole, Direction.OUT))
    g.add_task(w)
    g.task_finished(w)
    r = make_task("r", acc(o.whole, Direction.IN))
    assert g.add_task(r)  # ready immediately: producer already done


def test_ready_tasks_are_returned():
    g = DependencyGraph()
    o = obj()
    w = make_task("w", acc(o.whole, Direction.OUT))
    r = make_task("r", acc(o.whole, Direction.IN))
    assert g.add_task(w)
    assert not g.add_task(r)
    assert g.task_finished(w) == [r]


def test_last_writer_of():
    g = DependencyGraph()
    o = obj()
    w = make_task("w", acc(o.whole, Direction.OUT))
    g.add_task(w)
    assert g.last_writer_of(o.whole) is w
    g.task_finished(w)
    assert g.last_writer_of(o.whole) is None
    # A region the graph has never seen has no producer either.
    other = DataObject(name="other", num_elements=4)
    assert g.last_writer_of(other.whole) is None


def test_live_count():
    g = DependencyGraph()
    o = obj()
    t1 = make_task("t1", acc(Region(o, 0, 10), Direction.OUT))
    t2 = make_task("t2", acc(Region(o, 10, 10), Direction.OUT))
    g.add_task(t1)
    g.add_task(t2)
    assert g.live_count == 2
    g.task_finished(t1)
    assert g.live_count == 1
    g.task_finished(t2)
    assert g.live_count == 0


def test_arc_statistics():
    arcs = []
    g = DependencyGraph(on_arc=(lambda *arc: arcs.append(arc),))
    o = obj()
    w = make_task("w", acc(o.whole, Direction.OUT))
    r = make_task("r", acc(o.whole, Direction.IN))
    g.add_task(w)
    g.add_task(r)
    assert arcs == [(w, r, o.whole, "raw", True)]


def test_no_duplicate_arcs():
    g = DependencyGraph()
    o = obj()
    # Two regions from the same producer to the same consumer: one arc pair
    # per region registered, but pending count must match successors.
    ra, rb = Region(o, 0, 10), Region(o, 10, 10)
    w = make_task("w", acc(ra, Direction.OUT), acc(rb, Direction.OUT))
    r = make_task("r", acc(ra, Direction.IN), acc(rb, Direction.IN))
    g.add_task(w)
    g.add_task(r)
    assert r.pending_preds == 1
    assert w.successors == [r]


# ------------------------------------------------------------- property test

@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3),  # region index
                  st.sampled_from([Direction.IN, Direction.OUT,
                                   Direction.INOUT])),
        min_size=1, max_size=40,
    )
)
def test_random_graphs_respect_program_order_per_region(ops):
    """Executing tasks in any topological order produced by the graph gives
    each region's writes in program order (sequential consistency of the
    dataflow graph)."""
    o = DataObject(name="p", num_elements=40)
    regions = [Region(o, i * 10, 10) for i in range(4)]
    g = DependencyGraph()
    tasks = []
    for i, (ridx, direction) in enumerate(ops):
        t = Task(name=f"t{i}",
                 accesses=(Access(regions[ridx], direction),))
        g.add_task(t)
        tasks.append(t)

    ready = [t for t in tasks if t.state is TaskState.READY]
    executed = []
    seen = set()
    while ready:
        # Execute in arbitrary (reversed) order to stress the graph.
        t = ready.pop()
        assert t.tid not in seen, "task released twice"
        seen.add(t.tid)
        executed.append(t)
        ready.extend(g.task_finished(t))
    assert len(executed) == len(tasks), "graph deadlocked or lost tasks"

    # Writers of each region must appear in program order.
    completion = {t.tid: i for i, t in enumerate(executed)}
    for region in regions:
        writers = [t for t in tasks
                   if any(a.region.key == region.key and a.direction.writes
                          for a in t.accesses)]
        order = [completion[t.tid] for t in writers]
        assert order == sorted(order)

    # Every reader between two writes completes before the next write.
    for region in regions:
        last_writer_idx = None
        for t in tasks:
            for a in t.accesses:
                if a.region.key != region.key:
                    continue
                if a.direction.reads and last_writer_idx is not None:
                    assert completion[t.tid] > last_writer_idx
                if a.direction.writes:
                    last_writer_idx = completion[t.tid]
