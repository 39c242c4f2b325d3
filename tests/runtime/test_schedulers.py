"""Unit tests for the scheduler core under every row of the policy table."""

import pytest

from repro.memory import DataObject, Directory, DeviceSpace, HostSpace, Region
from repro.metrics import CounterRegistry
from repro.runtime import Access, Direction, Task
from repro.runtime.config import SCHEDULERS
from repro.runtime.scheduler import (
    POLICIES,
    AdaptiveScheduler,
    BottomLevelEstimator,
    PriorityTaskQueue,
    Scheduler,
    make_scheduler,
)


class FakeWorker:
    def __init__(self, kind, node_index, space, devices=("smp", "cuda")):
        self.kind = kind
        self.node_index = node_index
        self.space = space
        self._devices = devices

    def accepts(self, task):
        if self.kind == "node":
            return True
        return task.device in self._devices


def make_world(num_gpus=2, num_nodes=1):
    host = HostSpace("n0.host", 0, functional=False, canonical=True)
    directory = Directory(home=host)
    gpu_spaces = [DeviceSpace(f"gpu{i}", 0, i, functional=False)
                  for i in range(num_gpus)]
    gpu_workers = [FakeWorker("gpu", 0, s, devices=("cuda",))
                   for s in gpu_spaces]
    smp_worker = FakeWorker("smp", 0, host, devices=("smp",))
    proxies = [FakeWorker("node", i, HostSpace(f"n{i}.host", i, False))
               for i in range(1, num_nodes)]
    return host, directory, gpu_workers, smp_worker, proxies


def cuda_task(name, *accesses):
    from repro.cuda import KernelSpec

    return Task(name=name, device="cuda",
                kernel=KernelSpec(name=name, cost=lambda spec: 0.0),
                accesses=tuple(accesses))


def smp_task(name, *accesses):
    return Task(name=name, device="smp", accesses=tuple(accesses))


def test_make_scheduler_dispatch():
    host = HostSpace("h", 0, False, canonical=True)
    d = Directory(home=host)
    for name in ("bf", "default", "affinity"):
        sched = make_scheduler(name, lambda *a: None, d)
        assert type(sched) is Scheduler
        assert sched.policy is POLICIES[name]
    with pytest.raises(ValueError):
        make_scheduler("random", lambda *a: None, d)


def test_policy_table_is_total():
    # Order matters: the ledger's fuzz workload indexes SCHEDULERS.
    assert tuple(POLICIES) + ("adaptive",) == SCHEDULERS
    assert all(name == policy.name for name, policy in POLICIES.items())
    # Sweeps derive their policy lists from the table, not by retyping it.
    from repro.bench import figures
    assert figures.SCHED_POLICIES is SCHEDULERS
    # A policy is a row, never a class: the one subclass is the controller.
    assert Scheduler.__subclasses__() == [AdaptiveScheduler]


def test_bf_fifo_order():
    host, d, gpus, smp, _ = make_world()
    sched = make_scheduler("bf", lambda *a: None, None)
    for w in gpus + [smp]:
        sched.register_worker(w)
    o = DataObject(name="x", num_elements=100)
    t1 = cuda_task("t1", Access(Region(o, 0, 10), Direction.OUT))
    t2 = cuda_task("t2", Access(Region(o, 10, 10), Direction.OUT))
    sched.submit(t1)
    sched.submit(t2)
    assert sched.next_task(gpus[0]) is t1
    assert sched.next_task(gpus[1]) is t2
    assert sched.next_task(gpus[0]) is None


def test_device_constraint_respected():
    host, d, gpus, smp, _ = make_world()
    sched = make_scheduler("bf", lambda *a: None, None)
    for w in gpus + [smp]:
        sched.register_worker(w)
    o = DataObject(name="x", num_elements=100)
    ct = cuda_task("c", Access(Region(o, 0, 10), Direction.OUT))
    st = smp_task("s", Access(Region(o, 10, 10), Direction.OUT))
    sched.submit(ct)
    sched.submit(st)
    # SMP worker skips the cuda task and takes the smp one.
    assert sched.next_task(smp) is st
    assert sched.next_task(gpus[0]) is ct


def test_notify_called_on_submit():
    calls = []
    sched = make_scheduler("bf", lambda *a: calls.append(1), None)
    o = DataObject(name="x", num_elements=10)
    sched.submit(smp_task("t", Access(o.whole, Direction.OUT)))
    assert calls == [1]


def test_dep_aware_successor_goes_to_finishing_worker():
    host, d, gpus, smp, _ = make_world()
    sched = make_scheduler("default", lambda *a: None, None)
    for w in gpus + [smp]:
        sched.register_worker(w)
    o = DataObject(name="x", num_elements=100)
    t1 = cuda_task("t1", Access(o.whole, Direction.INOUT))
    t2 = cuda_task("t2", Access(o.whole, Direction.INOUT))
    sched.submit(t1)
    worker = gpus[1]
    assert sched.next_task(worker) is t1
    sched.task_finished(t1, worker, [t2])
    # Successor waits in the finisher's hint queue, served before global.
    other = cuda_task("t3", Access(Region(o, 0, 1), Direction.OUT))
    sched.submit(other)
    assert sched.next_task(worker) is t2
    assert sched.next_task(worker) is other


def test_dep_aware_hints_drained_by_others_as_last_resort():
    host, d, gpus, smp, _ = make_world()
    sched = make_scheduler("default", lambda *a: None, None)
    for w in gpus + [smp]:
        sched.register_worker(w)
    o = DataObject(name="x", num_elements=100)
    t1 = cuda_task("t1", Access(o.whole, Direction.INOUT))
    t2 = cuda_task("t2", Access(o.whole, Direction.INOUT))
    sched.submit(t1)
    assert sched.next_task(gpus[0]) is t1
    sched.task_finished(t1, gpus[0], [t2])
    # gpu0 is busy; gpu1 eventually takes the hinted task (work conserving).
    assert sched.next_task(gpus[1]) is t2


def test_dep_aware_incompatible_successor_goes_global():
    host, d, gpus, smp, _ = make_world()
    sched = make_scheduler("default", lambda *a: None, None)
    for w in gpus + [smp]:
        sched.register_worker(w)
    o = DataObject(name="x", num_elements=100)
    t_gpu = cuda_task("g", Access(o.whole, Direction.INOUT))
    t_smp = smp_task("s", Access(o.whole, Direction.INOUT))
    sched.submit(t_gpu)
    assert sched.next_task(gpus[0]) is t_gpu
    sched.task_finished(t_gpu, gpus[0], [t_smp])
    # The smp successor cannot run on the gpu worker: global queue.
    assert sched.next_task(smp) is t_smp


def test_affinity_places_by_resident_bytes():
    host, d, gpus, smp, _ = make_world()
    sched = make_scheduler("affinity", lambda *a: None, d)
    for w in gpus + [smp]:
        sched.register_worker(w)
    o = DataObject(name="x", num_elements=100)
    region = o.whole
    # Make gpu1's space hold the current version.
    d.record_write(region, gpus[1].space)
    t = cuda_task("t", Access(region, Direction.IN))
    sched.submit(t)
    # gpu0 polls first but the task was placed on gpu1's local queue.
    assert sched.next_task(gpus[1]) is t


def test_affinity_write_weight_prefers_written_region_holder():
    host, d, gpus, smp, _ = make_world()
    sched = make_scheduler("affinity", lambda *a: None, d)
    for w in gpus + [smp]:
        sched.register_worker(w)
    o = DataObject(name="x", num_elements=200)
    r_in = Region(o, 0, 100)
    r_out = Region(o, 100, 100)
    d.record_write(r_in, gpus[0].space)    # input lives on gpu0
    d.record_write(r_out, gpus[1].space)   # inout lives on gpu1
    t = cuda_task("t", Access(r_in, Direction.IN),
                  Access(r_out, Direction.INOUT))
    sched.submit(t)
    # Equal sizes, but the written region weighs double: goes to gpu1.
    assert sched.next_task(gpus[1]) is t


def test_affinity_virgin_output_exerts_no_pull():
    host, d, gpus, smp, _ = make_world()
    sched = make_scheduler("affinity", lambda *a: None, d)
    for w in gpus + [smp]:
        sched.register_worker(w)
    o = DataObject(name="x", num_elements=100)
    t = cuda_task("t", Access(o.whole, Direction.OUT))
    sched.submit(t)
    # Never-written output: no affinity anywhere -> global queue, any
    # worker may take it.
    assert sched.next_task(gpus[0]) is t


def test_affinity_stealing_within_node():
    host, d, gpus, smp, _ = make_world()
    sched = make_scheduler("affinity", lambda *a: None, d, steal=True)
    for w in gpus + [smp]:
        sched.register_worker(w)
    o = DataObject(name="x", num_elements=100)
    d.record_write(o.whole, gpus[0].space)
    t = cuda_task("t", Access(o.whole, Direction.IN))
    sched.submit(t)
    # Placed on gpu0's queue, but gpu1 (same node) may steal it.
    assert sched.next_task(gpus[1]) is t
    assert sched.metrics.value("scheduler.steals") == 1


def test_affinity_steal_disabled():
    host, d, gpus, smp, _ = make_world()
    sched = make_scheduler("affinity", lambda *a: None, d, steal=False)
    for w in gpus + [smp]:
        sched.register_worker(w)
    o = DataObject(name="x", num_elements=100)
    d.record_write(o.whole, gpus[0].space)
    t = cuda_task("t", Access(o.whole, Direction.IN))
    sched.submit(t)
    assert sched.next_task(gpus[1]) is None
    assert sched.next_task(gpus[0]) is t


def test_affinity_no_steal_across_nodes():
    host, d, gpus, smp, proxies = make_world(num_nodes=3)
    sched = make_scheduler("affinity", lambda *a: None, d, steal=True)
    for w in gpus + [smp] + proxies:
        sched.register_worker(w)
    o = DataObject(name="x", num_elements=100)
    d.record_write(o.whole, proxies[0].space)
    t = smp_task("t", Access(o.whole, Direction.IN))
    sched.submit(t)
    # Placed on the node-1 proxy; master workers must not steal it.
    assert sched.next_task(smp) is None
    assert sched.next_task(gpus[0]) is None


def test_affinity_round_robin_over_node_domains():
    host, d, gpus, smp, proxies = make_world(num_nodes=3)
    sched = make_scheduler("affinity", lambda *a: None, d, steal=True)
    for w in gpus + [smp] + proxies:
        sched.register_worker(w)
    o = DataObject(name="x", num_elements=300)
    tasks = [smp_task(f"t{i}", Access(Region(o, i * 10, 10), Direction.OUT))
             for i in range(6)]
    for t in tasks:
        sched.submit(t)
    # 3 domains (master + 2 proxies): tasks cycle master, n1, n2, master...
    assert sched.next_task(smp) is tasks[0]
    assert sched.next_task(proxies[0]) is tasks[1]
    assert sched.next_task(proxies[1]) is tasks[2]
    assert sched.next_task(smp) is tasks[3]


def test_pending_counts():
    host, d, gpus, smp, _ = make_world()
    for name in ("bf", "default", "affinity"):
        sched = make_scheduler(name, lambda *a: None, d)
        for w in gpus + [smp]:
            sched.register_worker(w)
        o = DataObject(name=f"x-{name}", num_elements=100)
        sched.submit(smp_task("t", Access(o.whole, Direction.OUT)))
        assert sched.metrics.value("scheduler.pending") == 1
        assert sched.next_task(smp) is not None
        assert sched.metrics.value("scheduler.pending") == 0


# ---------------------------------------------------------------------------
# Adaptive tier: work stealing, critical path, meta-scheduler
# ---------------------------------------------------------------------------

def test_make_scheduler_adaptive_tier_dispatch():
    host = HostSpace("h", 0, False, canonical=True)
    d = Directory(home=host)
    for name in ("ws", "cp"):
        sched = make_scheduler(name, lambda *a: None, d)
        assert type(sched) is Scheduler
        assert sched.policy is POLICIES[name]
    assert isinstance(make_scheduler("adaptive", lambda *a: None, d),
                      AdaptiveScheduler)


def test_priority_queue_orders_by_priority_then_readiness():
    host, d, gpus, smp, _ = make_world()
    o = DataObject(name="x", num_elements=100)
    low = smp_task("low", Access(Region(o, 0, 10), Direction.OUT))
    hi = smp_task("hi", Access(Region(o, 10, 10), Direction.OUT))
    tie = smp_task("tie", Access(Region(o, 20, 10), Direction.OUT))
    priority = {low.tid: 1.0, hi.tid: 5.0, tie.tid: 5.0}
    q = PriorityTaskQueue(lambda task: priority[task.tid])
    q.push(low)
    q.push(hi)
    q.push(tie)
    assert q.peek_for(smp, 3) == [hi, tie, low]
    assert q.pop_for(smp) is hi
    assert q.pop_for(smp) is tie        # equal priority: readiness order
    assert q.pop_for(smp) is low
    assert q.pop_for(smp) is None


def test_priority_queue_drain_restores_readiness_order():
    host, d, gpus, smp, _ = make_world()
    o = DataObject(name="x", num_elements=100)
    tasks = [smp_task(f"t{i}", Access(Region(o, i * 10, 10), Direction.OUT))
             for i in range(4)]
    # priorities opposite to submission order
    q = PriorityTaskQueue(lambda task: float(tasks.index(task)))
    for t in tasks:
        q.push(t)
    assert q.drain() == tasks
    assert len(q) == 0


def test_bottom_level_estimator_chain():
    est = BottomLevelEstimator()
    o = DataObject(name="x", num_elements=100)
    a = smp_task("a", Access(Region(o, 0, 10), Direction.INOUT))
    b = smp_task("b", Access(Region(o, 0, 10), Direction.INOUT))
    c = smp_task("c", Access(Region(o, 0, 10), Direction.INOUT))
    a.successors.append(b)
    b.successors.append(c)
    # No specs, no observations: every task costs NOMINAL, so the chain
    # head's bottom level is strictly larger than its successors'.
    # Query the head FIRST: the fold must recurse through unmemoized
    # successors (a head-first query once dropped their contribution).
    assert est.bottom_level(a) > est.bottom_level(b)
    assert est.bottom_level(b) > est.bottom_level(c)
    assert est.bottom_level(c) > 0
    assert est.bottom_level(a) == pytest.approx(3 * est.bottom_level(c))


def test_ws_places_by_locality():
    host, d, gpus, smp, _ = make_world()
    sched = make_scheduler("ws", lambda *a: None, d)
    for w in gpus + [smp]:
        sched.register_worker(w)
    o = DataObject(name="x", num_elements=100)
    d.record_write(o.whole, gpus[1].space)
    t = cuda_task("t", Access(o.whole, Direction.IN))
    sched.submit(t)
    # The owner of the data gets the task at the front of its deque.
    assert sched.next_task(gpus[1]) is t


def test_ws_steals_coldest_work_from_victim():
    host, d, gpus, smp, _ = make_world()
    sched = make_scheduler("ws", lambda *a: None, d)
    for w in gpus + [smp]:
        sched.register_worker(w)
    o = DataObject(name="x", num_elements=100)
    d.record_write(o.whole, gpus[0].space)
    tasks = [cuda_task(f"t{i}", Access(o.whole, Direction.IN))
             for i in range(4)]
    for t in tasks:
        sched.submit(t)          # all pulled to gpu0 by locality
    # gpu1 is empty: it steals the back HALF of gpu0's deque (the work
    # the owner would reach last), in readiness order, while gpu0 keeps
    # popping the front.
    assert sched.next_task(gpus[1]) is tasks[2]
    assert sched.metrics.value("scheduler.steals") == 1
    assert sched.metrics.value("scheduler.ws.stolen_tasks") == 2
    assert sched.next_task(gpus[1]) is tasks[3]   # rest of the loot
    assert sched.next_task(gpus[0]) is tasks[0]


def test_ws_no_steal_when_disabled():
    host, d, gpus, smp, _ = make_world()
    sched = make_scheduler("ws", lambda *a: None, d, steal=False)
    for w in gpus + [smp]:
        sched.register_worker(w)
    o = DataObject(name="x", num_elements=100)
    d.record_write(o.whole, gpus[0].space)
    t = cuda_task("t", Access(o.whole, Direction.IN))
    sched.submit(t)
    assert sched.next_task(gpus[1]) is None
    assert sched.next_task(gpus[0]) is t


def test_ws_blacklist_reissues_queued_tasks():
    host, d, gpus, smp, _ = make_world()
    sched = make_scheduler("ws", lambda *a: None, d)
    for w in gpus + [smp]:
        sched.register_worker(w)
    o = DataObject(name="x", num_elements=100)
    d.record_write(o.whole, gpus[0].space)
    tasks = [cuda_task(f"t{i}", Access(o.whole, Direction.IN))
             for i in range(3)]
    for t in tasks:
        sched.submit(t)
    stranded = sched.blacklist(gpus[0])
    assert {t.tid for t in stranded} == {t.tid for t in tasks}
    for t in stranded:          # resubmission lands on the survivor
        sched.submit(t)
    assert sched.next_task(gpus[1]) is not None


def test_cp_pops_highest_bottom_level_first():
    host, d, gpus, smp, _ = make_world()
    sched = make_scheduler("cp", lambda *a: None, d)
    for w in gpus + [smp]:
        sched.register_worker(w)
    o = DataObject(name="x", num_elements=100)
    # "head" has a long successor chain -> higher bottom level.
    head = smp_task("head", Access(Region(o, 0, 10), Direction.INOUT))
    mid = smp_task("mid", Access(Region(o, 0, 10), Direction.INOUT))
    head.successors.append(mid)
    leaf = smp_task("leaf", Access(Region(o, 50, 10), Direction.OUT))
    sched.submit(leaf)
    sched.submit(head)
    assert sched.next_task(smp) is head    # priority beats FIFO order
    assert sched.next_task(smp) is leaf


def test_adaptive_starts_on_affinity_and_delegates():
    host, d, gpus, smp, _ = make_world()
    sched = make_scheduler("adaptive", lambda *a: None, d)
    assert sched.policy is POLICIES["affinity"]
    for w in gpus + [smp]:
        sched.register_worker(w)
    o = DataObject(name="x", num_elements=100)
    t = cuda_task("t", Access(o.whole, Direction.OUT))
    sched.submit(t)
    assert sched.metrics.value("scheduler.pending") == 1
    assert sched.next_task(gpus[0]) is t
    assert sched.metrics.value("scheduler.pending") == 0


def test_adaptive_switch_preserves_queued_tasks():
    host, d, gpus, smp, _ = make_world()
    sched = make_scheduler("adaptive", lambda *a: None, d)
    for w in gpus + [smp]:
        sched.register_worker(w)
    o = DataObject(name="x", num_elements=400)
    tasks = [cuda_task(f"t{i}", Access(Region(o, i * 10, 10), Direction.OUT))
             for i in range(8)]
    for t in tasks:
        sched.submit(t)
    sched._switch("cp")
    assert sched.policy is POLICIES["cp"]
    assert sched.metrics.value("scheduler.adaptive.switches") == 1
    got = set()
    while True:
        t = sched.next_task(gpus[0]) or sched.next_task(gpus[1])
        if t is None:
            break
        got.add(t.tid)
    assert got == {t.tid for t in tasks}   # nothing lost in the handoff


def test_adaptive_blacklist_drains_the_dead_place():
    host, d, gpus, smp, _ = make_world()
    sched = make_scheduler("adaptive", lambda *a: None, d)
    for w in gpus + [smp]:
        sched.register_worker(w)
    o = DataObject(name="x", num_elements=100)
    d.record_write(o.whole, gpus[0].space)
    t = cuda_task("t", Access(o.whole, Direction.IN))
    sched.submit(t)
    stranded = sched.blacklist(gpus[0])
    assert t.tid in {x.tid for x in stranded}


# ---------------------------------------------------------------------------
# One core, one set of instruments: what every row reports
# ---------------------------------------------------------------------------

def test_default_release_path_writes_the_pending_gauge():
    host, d, gpus, smp, _ = make_world()
    metrics = CounterRegistry()
    sched = make_scheduler("default", lambda *a: None, None, metrics=metrics)
    for w in gpus + [smp]:
        sched.register_worker(w)
    o = DataObject(name="x", num_elements=100)
    done = cuda_task("done", Access(o.whole, Direction.INOUT))
    released = [cuda_task("a", Access(Region(o, 0, 10), Direction.INOUT)),
                cuda_task("b", Access(Region(o, 10, 10), Direction.INOUT)),
                smp_task("c", Access(Region(o, 20, 10), Direction.INOUT))]
    # Released successors never pass through submit(): the release hook
    # itself must count them and move the gauge.
    sched.task_finished(done, gpus[0], released)
    snap = metrics.snapshot()
    assert snap["scheduler.pending.high_water"] == 3
    assert snap["scheduler.ready_submissions"] == 3


def test_adaptive_steals_are_counted():
    host, d, gpus, smp, _ = make_world()
    metrics = CounterRegistry()
    sched = make_scheduler("adaptive", lambda *a: None, d, metrics=metrics)
    for w in gpus + [smp]:
        sched.register_worker(w)
    o = DataObject(name="x", num_elements=100)
    d.record_write(o.whole, gpus[0].space)
    t = cuda_task("t", Access(o.whole, Direction.IN))
    sched.submit(t)              # placed on gpu0 by locality
    assert sched.next_task(gpus[1]) is t
    assert metrics.value("scheduler.steals") == 1


def test_adaptive_run_reports_its_steals():
    from repro.apps import cholesky
    from repro.bench.harness import fresh_multi_gpu
    from repro.runtime import RuntimeConfig
    res = cholesky.run_ompss(
        fresh_multi_gpu(4), cholesky.CholeskySize(n=4096, bs=512),
        config=RuntimeConfig(functional=False, scheduler="adaptive"))
    assert res.metrics["scheduler.steals"] > 0
