"""AM retry/backoff machinery, and regression tests for the two latent
retry hazards this subsystem fixed:

1. **Duplicate delivery** (``gasnet/am.py``): a resent request racing a
   still-running generator handler used to execute the handler twice.
   The receiver now keeps an in-progress marker per idempotency token, so
   the duplicate *waits for* the first execution instead of repeating it.
2. **Stale acknowledgement** (``runtime/cluster/master.py``): a completion
   message for a task the master already pulled back from a blacklisted
   node used to double-decrement the presend window.  Completions are now
   deduplicated against the proxy's in-flight table.
"""

from __future__ import annotations

import pytest

from repro.faults import AMTimeoutError, FaultEvent, FaultPlan
from repro.hardware import build_gpu_cluster
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.task import Task
from repro.sim import Environment


def make_cluster_rt(plan, num_nodes=2, **cfg):
    env = Environment()
    machine = build_gpu_cluster(env, num_nodes=num_nodes)
    defaults = dict(functional=False, kernel_jitter=0, task_overhead=0,
                    fault_plan=plan)
    defaults.update(cfg)
    return Runtime(machine, RuntimeConfig(**defaults))


def send(rt, handler_name, *args, src=0, dst=1):
    """Run one AM request to completion; returns the handler result."""
    box = {}

    def proc():
        box["result"] = yield rt.am.request(src, dst, handler_name, *args)

    rt.start()
    rt.env.run(until=rt.env.process(proc()))
    return box["result"]


# ---------------------------------------------------------------------------
# Retry / backoff / timeout
# ---------------------------------------------------------------------------

def test_dropped_message_is_retried_until_delivered():
    plan = FaultPlan(events=(
        FaultEvent(kind="am_drop", nth=1),
    ), seed=0, am_timeout=1e-3, am_backoff=1e-4)
    rt = make_cluster_rt(plan)
    calls = []
    rt.am.endpoints[1].register("ping", lambda src, x: calls.append(x) or x)
    assert send(rt, "ping", 42) == 42
    assert calls == [42]                      # delivered exactly once
    assert rt.metrics.value("am.retries") == 1
    assert rt.metrics.value("am.timeouts") == 1
    assert rt.metrics.value("faults.am_dropped") == 1


def test_corrupted_message_is_discarded_and_retried():
    plan = FaultPlan(events=(
        FaultEvent(kind="am_corrupt", nth=1),
    ), seed=0, am_timeout=1e-3, am_backoff=1e-4)
    rt = make_cluster_rt(plan)
    calls = []
    rt.am.endpoints[1].register("ping", lambda src: calls.append(1))
    send(rt, "ping")
    assert calls == [1]
    assert rt.metrics.value("faults.am_corrupted") == 1


def test_partition_heals_and_message_gets_through():
    plan = FaultPlan(events=(
        FaultEvent(kind="link_partition", at=0.0, duration=2.5e-3),
    ), seed=0, am_timeout=1e-3, am_backoff=1e-4)
    rt = make_cluster_rt(plan)
    calls = []
    rt.am.endpoints[1].register("ping", lambda src: calls.append(rt.env.now))
    send(rt, "ping")
    assert len(calls) == 1
    assert calls[0] >= 2.5e-3                 # only after the heal
    assert rt.metrics.value("faults.am_blackholed") >= 1


def test_retry_budget_exhaustion_raises_am_timeout():
    plan = FaultPlan(events=(
        FaultEvent(kind="link_partition", at=0.0),   # never heals
    ), seed=0, am_timeout=1e-3, am_backoff=1e-4, am_max_retries=3)
    rt = make_cluster_rt(plan)
    rt.am.endpoints[1].register("ping", lambda src: None)
    with pytest.raises(AMTimeoutError, match="3 attempts"):
        send(rt, "ping")


def test_backoff_grows_between_attempts():
    plan = FaultPlan(events=(
        FaultEvent(kind="am_drop", nth=1),
        FaultEvent(kind="am_drop", nth=2),
    ), seed=0, am_timeout=1e-3, am_backoff=1e-4, am_backoff_factor=2.0)
    rt = make_cluster_rt(plan)
    rt.am.endpoints[1].register("ping", lambda src: None)
    send(rt, "ping")
    # Two losses: timeout + 1e-4 backoff, timeout + 2e-4 backoff, then the
    # third attempt delivers.
    assert rt.env.now >= 2e-3 + 3e-4
    assert rt.metrics.value("am.retries") == 2


# ---------------------------------------------------------------------------
# Hazard 1: duplicate delivery on resend
# ---------------------------------------------------------------------------

def test_ack_drop_does_not_rerun_the_handler():
    """The handler ran, the ack vanished, the sender resent: the receiver
    must recognise the token and answer from its dedup table."""
    plan = FaultPlan(events=(
        FaultEvent(kind="am_ack_drop", nth=1),
    ), seed=0, am_timeout=1e-3, am_backoff=1e-4)
    rt = make_cluster_rt(plan)
    calls = []

    def handler(src, x):
        calls.append(x)
        return x * 2

    rt.am.endpoints[1].register("ping", handler)
    assert send(rt, "ping", 21) == 42
    assert calls == [21]                      # executed exactly once
    assert rt.metrics.value("am.duplicates_suppressed") == 1


def test_resend_racing_slow_generator_handler_waits_instead_of_rerunning():
    """Regression: the resend used to re-enter a handler that was *still
    running* (its token not yet in the dedup table), executing the side
    effect twice.  The in-progress marker makes the duplicate wait and
    adopt the first execution's result."""
    plan = FaultPlan(events=(
        FaultEvent(kind="am_ack_drop", nth=1),
    ), seed=0, am_timeout=1e-3, am_backoff=1e-4)
    rt = make_cluster_rt(plan)
    state = {"runs": 0}

    def slow_handler(src):
        state["runs"] += 1
        # Runs far longer than the sender's watchdog: the retry arrives
        # while this body is still executing.
        yield rt.env.timeout(5e-3)
        return f"run-{state['runs']}"

    rt.am.endpoints[1].register("slow", slow_handler)
    result = send(rt, "slow")
    assert state["runs"] == 1
    assert result == "run-1"
    assert rt.metrics.value("am.duplicates_suppressed") >= 1


def test_slow_handler_alone_triggers_watchdog_but_never_duplicates():
    """Even with no injected AM fault events, a handler slower than the
    watchdog causes resends — which must all dedup onto one execution.
    (A non-empty plan is needed to arm the resilient path at all.)"""
    plan = FaultPlan(events=(
        FaultEvent(kind="kernel_abort", nth=10**9),   # inert, arms engine
    ), seed=0, am_timeout=1e-3, am_backoff=1e-4)
    rt = make_cluster_rt(plan)
    state = {"runs": 0}

    def slow_handler(src):
        state["runs"] += 1
        yield rt.env.timeout(3.5e-3)
        return "done"

    rt.am.endpoints[1].register("slow", slow_handler)
    assert send(rt, "slow") == "done"
    assert state["runs"] == 1


# ---------------------------------------------------------------------------
# Hazard 2: stale completion for a rerouted task
# ---------------------------------------------------------------------------

def _noop_cuda_task(name):
    from repro.cuda.kernels import KernelSpec
    return Task(name=name, device="cuda",
                kernel=KernelSpec(name, cost=lambda s, **kw: 1e-4))


def test_stale_completion_does_not_double_decrement_window():
    plan = FaultPlan(events=(
        FaultEvent(kind="kernel_abort", nth=10**9),   # inert, arms engine
    ), seed=0)
    rt = make_cluster_rt(plan, presend=2)
    rt.start()
    comm = rt.master_image.comm_thread
    proxy = comm.proxies[0]
    task = _noop_cuda_task("t")
    rt.graph.add_task(task)

    # The dispatch bookkeeping the comm thread does.
    proxy.admit(task)

    # The node's device dies; the fault engine pulls the task back.
    rt.faults.return_to_master(task, proxy.node_index)
    assert task.tid not in proxy.inflight
    assert proxy.outstanding == 0

    # The slave's completion message arrives anyway (it was in flight):
    # it must be recognised as stale, not double-decrement the window.
    comm.on_remote_complete(task, proxy.node_index)
    assert proxy.outstanding == 0
    assert rt.metrics.value("cluster.stale_completions") == 1


def test_duplicate_completion_for_finished_task_is_ignored():
    from repro.runtime.task import TaskState

    plan = FaultPlan(events=(
        FaultEvent(kind="kernel_abort", nth=10**9),
    ), seed=0)
    rt = make_cluster_rt(plan)
    rt.start()
    comm = rt.master_image.comm_thread
    task = _noop_cuda_task("t")
    task.state = TaskState.FINISHED
    comm.on_remote_complete(task, 1)
    assert rt.metrics.value("cluster.stale_completions") == 1


def test_proxy_stops_accepting_cuda_after_node_loses_all_gpus():
    plan = FaultPlan(events=(
        FaultEvent(kind="gpu_loss", node=1, gpu=0, at=1e-3),
    ), seed=0)
    rt = make_cluster_rt(plan)
    rt.start()
    proxy = rt.master_image.proxies[0]
    task = _noop_cuda_task("t")
    assert proxy.accepts(task)

    def main():
        yield rt.env.timeout(2e-3)

    rt.env.run(until=rt.env.process(main()))
    assert not proxy.accepts(task)            # no live GPU on node 1 left
    smp_task = Task(name="s", device="smp", smp_cost=1e-6)
    assert proxy.accepts(smp_task)            # CPUs still fine
