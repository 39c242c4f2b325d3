"""JobQueue: strict priorities, then submission order.

The queue is synchronous and wall-clock-free, so these tests assert
*exact* dispatch sequences.
"""

from repro.metrics import CounterRegistry
from repro.service import JobQueue, JobRequest


def req(tenant="default", priority=0, app="matmul"):
    return JobRequest(app=app, tenant=tenant, priority=priority)


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


def test_priority_beats_submission_order():
    """A late high-priority job from a busy tenant still jumps the line."""
    q = JobQueue()
    q.push("a1", req(tenant="alice"))
    q.push("b1", req(tenant="bob"))
    q.push("a-urgent", req(tenant="alice", priority=1))
    assert q.pop()[0] == "a-urgent"


def test_equal_priorities_go_in_submission_order_whatever_the_tenant():
    q = JobQueue()
    for tenant in ("alice", "bob", "carol"):
        for i in range(3):
            q.push(f"{tenant}{i}", req(tenant=tenant))
    q.push("bob-late", req(tenant="bob"))
    assert drain(q) == ["alice0", "alice1", "alice2", "bob0", "bob1",
                        "bob2", "carol0", "carol1", "carol2", "bob-late"]


def test_peek_matches_pop():
    q = JobQueue()
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


def test_bare_queue_counts_into_a_private_registry():
    q = JobQueue()
    q.push("a", req())
    assert q.pop()[0] == "a"
    assert q.metrics.snapshot()["service.jobs_dispatched"] == 1

