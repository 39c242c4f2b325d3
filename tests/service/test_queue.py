"""JobQueue: strict priorities, weighted fairness, deterministic order.

The queue is synchronous and wall-clock-free, so these tests assert
*exact* dispatch sequences (see :mod:`repro.service.queue` for the WFQ
semantics being pinned).
"""

import pytest

from repro.metrics import CounterRegistry
from repro.service import JobQueue, JobRequest


def req(tenant="default", priority=0, cost=1.0, app="matmul"):
    return JobRequest(app=app, tenant=tenant, priority=priority, cost=cost)


def drain(queue):
    out = []
    while queue:
        job_id, _ = queue.pop()
        out.append(job_id)
    return out


def test_fifo_within_one_tenant():
    q = JobQueue()
    for i in range(4):
        q.push(f"j{i}", req())
    assert drain(q) == ["j0", "j1", "j2", "j3"]


def test_priority_is_strict():
    q = JobQueue()
    q.push("low", req(priority=0))
    q.push("mid", req(priority=1))
    q.push("high", req(priority=5))
    q.push("low2", req(priority=0))
    assert drain(q) == ["high", "mid", "low", "low2"]


def test_priority_beats_fairness():
    """A late high-priority job from a busy tenant still jumps the line."""
    q = JobQueue()
    q.push("a1", req(tenant="alice"))
    q.push("b1", req(tenant="bob"))
    q.push("a-urgent", req(tenant="alice", priority=1))
    assert q.pop()[0] == "a-urgent"


def test_weighted_fairness_under_contention():
    """alice (weight 2) drains twice as fast as bob/carol (weight 1).

    Three tenants, three equal-cost jobs each: the virtual-time order is
    fully determined, so the exact sequence is pinned.
    """
    q = JobQueue(weights={"alice": 2.0})
    for tenant in ("alice", "bob", "carol"):
        for i in range(3):
            q.push(f"{tenant}{i}", req(tenant=tenant))
    order = drain(q)
    tenants = [j.rstrip("012") for j in order]
    assert tenants == ["alice", "bob", "carol", "alice", "alice",
                       "bob", "carol", "bob", "carol"]
    # Over the first contended window alice got 2x bob's share.
    assert tenants[:5].count("alice") == 3


def test_cost_charges_virtual_time():
    """An expensive job delays its tenant's next turn proportionally."""
    q = JobQueue()
    q.push("a-big", req(tenant="alice", cost=3.0))
    q.push("a2", req(tenant="alice"))
    q.push("b1", req(tenant="bob"))
    q.push("b2", req(tenant="bob"))
    q.push("b3", req(tenant="bob"))
    # alice goes first (tie at vtime 0), but her cost-3 job pushes her
    # virtual time to 3; bob catches up with three cost-1 jobs.
    assert drain(q) == ["a-big", "b1", "b2", "b3", "a2"]


def test_idle_tenant_reenters_at_virtual_clock():
    """Sitting out does not bank credit: a fresh tenant joining a busy
    queue starts at the current virtual clock and interleaves, instead of
    monopolizing the backends until it 'catches up'."""
    q = JobQueue()
    for i in range(5):
        q.push(f"a{i}", req(tenant="alice"))
    assert drain(q) == [f"a{i}" for i in range(5)]
    # bob was idle the whole time; both tenants now submit three jobs.
    for i in range(3):
        q.push(f"b{i}", req(tenant="bob"))
        q.push(f"a{i + 5}", req(tenant="alice"))
    # bob starts at the current virtual clock, one step behind alice's
    # last start tag, so the two interleave from the first dispatch —
    # bob does not get five free turns to "catch up".
    assert drain(q) == ["b0", "a5", "b1", "a6", "b2", "a7"]


def test_peek_matches_pop():
    q = JobQueue(weights={"alice": 2.0})
    q.push("a", req(tenant="alice"))
    q.push("b", req(tenant="bob"))
    while q:
        peeked = q.peek()
        assert q.pop() == peeked
    assert q.peek() is None
    assert q.pop() is None


def test_queue_counters_report_into_bound_registry():
    metrics = CounterRegistry()
    q = JobQueue(metrics=metrics)
    q.push("a1", req(tenant="alice"))
    q.push("b1", req(tenant="bob"))
    q.pop()
    snap = metrics.snapshot()
    assert snap["service.tenant.alice.queued"] == 1
    assert snap["service.tenant.alice.dispatched"] == 1
    assert snap["service.jobs_dispatched"] == 1
    assert snap["service.queue.depth"] == 1


def test_unbound_queue_counts_nothing_and_does_not_crash():
    q = JobQueue()
    assert q.metrics is None
    q.push("a", req())
    assert q.pop()[0] == "a"


def test_invalid_weights_rejected():
    with pytest.raises(ValueError):
        JobQueue(weights={"alice": 0.0})
    with pytest.raises(ValueError):
        JobQueue(default_weight=-1.0)
