"""Service end-to-end: async lifecycle, dispatch order, artifacts, crashes.

Covers the acceptance scenario for the service tier: a mixed-tenant
batch of 8+ jobs drains through a 2-worker fork-isolated pool in
submission order, observable in the ``service.*`` counters,
every finished job stages a full artifact bundle, and a job whose
process dies mid-run is marked failed (with the crash detail) while the
queue keeps draining.
"""

import json
import os
import shutil
import signal
import subprocess
import time
import types

import pytest

from repro.runtime.config import RuntimeConfig
from repro.service import Backend, JobRequest, JobState, Service
from repro.service import api
from repro.service import backends as backends_mod

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="pool backend requires POSIX fork")

PERF = RuntimeConfig(functional=False)


def perf_request(**kwargs):
    kwargs.setdefault("size", {"n": 256, "bs": 64})
    return JobRequest(app="matmul", config=PERF, **kwargs)


def test_submit_poll_wait_round_trip(tmp_path):
    with Service(staging=tmp_path) as svc:
        job_id = svc.submit(perf_request())
        assert svc.state(job_id) is JobState.QUEUED
        assert job_id in svc
        result = svc.wait(job_id, timeout=60)
        assert result.state is JobState.DONE
        assert result.makespan > 0
        assert result.backend == "eager"
        # The staged status mirrors the in-process state.
        assert svc.status(job_id)["state"] == "done"
        assert svc.staging.read_status(job_id)["state"] == "done"


#: one request per resource shape the routing rule tells apart.
SHAPES = {
    "small": dict(count=1),
    "two-gpus": dict(count=2),
    "wide-node": dict(count=3),
    "cluster": dict(machine="cluster", count=2),
}


@pytest.mark.parametrize("backends, expected", [
    # one backend: everything goes there, whatever it is called
    (("eager",), dict.fromkeys(SHAPES, "eager")),
    (("pool",), dict.fromkeys(SHAPES, "pool")),
    # eager + pool: cluster runs and 3+ device nodes are forked
    (("eager", "pool"), {"small": "eager", "two-gpus": "eager",
                         "wide-node": "pool", "cluster": "pool"}),
    (("pool", "eager"), {"small": "eager", "two-gpus": "eager",
                         "wide-node": "pool", "cluster": "pool"}),
], ids=["eager-only", "pool-only", "mixed", "mixed-any-order"])
def test_routing_rule(tmp_path, backends, expected):
    """The whole of routing: one backend takes everything; ``eager`` +
    ``pool`` sends ``machine == "cluster" or count >= 3`` to the pool.
    The rule goes by backend *name*, so in-process backends stand in."""
    with Service(backends={name: Backend() for name in backends},
                 staging=tmp_path) as svc:
        ids = {shape: svc.submit(perf_request(**kwargs))
               for shape, kwargs in SHAPES.items()}
        svc.run_until_idle(timeout=120)
        routed = {shape: svc.result(job_id).backend
                  for shape, job_id in ids.items()}
        snap = svc.metrics.snapshot()
    assert routed == expected
    for name in backends:
        assert snap.get(f"service.backend.{name}.completed", 0) == \
            sum(1 for b in routed.values() if b == name)


def test_local_service_routes_small_jobs_in_process(tmp_path):
    """``Service.local(workers=N)`` is the mixed case: a small job does
    not pay a fork (what lets ``svc-mixed`` overlap an in-process job
    with a forked one on a two-core host)."""
    with Service.local(workers=1, staging=tmp_path) as svc:
        assert list(svc.backends) == ["eager", "pool"]
        assert svc.wait(svc.submit(perf_request()),
                        timeout=60).backend == "eager"


@needs_fork
def test_wait_blocks_on_the_job_pipe_until_its_deadline(tmp_path,
                                                        monkeypatch):
    """No sleep and no busy loop: with a forked job running and nothing
    else to do, ``wait`` blocks in ``select`` on that job's pipe
    for the time left before its deadline.  The injected ``select`` wakes
    every 0.25 s of an injected clock with nothing to read, so a 1 s
    timeout is waits of 1, 0.75, 0.5 and 0.25 s, then ``TimeoutError``."""
    monkeypatch.setattr(backends_mod, "execute_request",
                        lambda request: time.sleep(60))
    now, waits = [100.0], []

    def select(rlist, wlist, xlist, timeout):
        waits.append((list(rlist), timeout))
        now[0] += min(timeout, 0.25)
        return [], [], []

    monkeypatch.setattr(api, "select", types.SimpleNamespace(select=select))
    monkeypatch.setattr(api, "time", types.SimpleNamespace(
        monotonic=lambda: now[0], perf_counter=time.perf_counter))
    with Service(backends={"pool": Backend(workers=1)},
                 staging=tmp_path) as svc:
        job_id = svc.submit(perf_request())
        with pytest.raises(TimeoutError, match="still running"):
            svc.wait(job_id, timeout=1.0)
        assert svc.state(job_id) is JobState.RUNNING
        fds = svc.backends["pool"].fds()
    assert len(fds) == 1
    assert waits == [(fds, 1.0), (fds, 0.75), (fds, 0.5), (fds, 0.25)]
    assert now[0] == 101.0


def test_artifact_bundle_complete(tmp_path):
    """A finished sanitized+traced job stages the full bundle."""
    with Service(staging=tmp_path) as svc:
        job_id = svc.submit(JobRequest(app="jacobi", sanitize=True))
        svc.wait(job_id, timeout=120)
        bundle = svc.fetch_artifacts(job_id)
    assert set(bundle) == {"request", "status", "result", "metrics",
                           "trace", "sanitizer", "stdout"}
    result = json.loads(bundle["result"].read_text())
    assert result["state"] == "done"
    assert result["makespan"] > 0
    metrics = json.loads(bundle["metrics"].read_text())
    assert any(k.startswith("runtime.") for k in metrics)
    trace = json.loads(bundle["trace"].read_text())
    assert trace["traceEvents"]
    sanitizer = json.loads(bundle["sanitizer"].read_text())
    assert sanitizer["enabled"] is True
    assert sanitizer["findings"] == []          # jacobi is clean


def test_failed_job_keeps_traceback_and_queue_drains(tmp_path):
    with Service(staging=tmp_path) as svc:
        bad = svc.submit(perf_request(run_kwargs={"nonsense": True}))
        good = svc.submit(perf_request())
        svc.run_until_idle(timeout=60)
        assert svc.state(bad) is JobState.FAILED
        assert svc.state(good) is JobState.DONE
        assert "TypeError" in svc.result(bad).error
        assert svc.status(bad)["error"]
        # Failed bundles still stage result.json (with the error).
        doc = json.loads(svc.fetch_artifacts(bad)["result"].read_text())
        assert doc["state"] == "failed"
        snap = svc.metrics.snapshot()
        assert snap["service.jobs_failed"] == 1
        assert snap["service.jobs_completed"] == 1


def test_duplicate_and_unknown_job_ids_rejected(tmp_path):
    with Service(staging=tmp_path) as svc:
        job_id = svc.submit(perf_request(), job_id="fixed")
        assert job_id == "fixed"
        with pytest.raises(ValueError):
            svc.submit(perf_request(), job_id="fixed")
        with pytest.raises(KeyError):
            svc.state("nope")
        with pytest.raises(RuntimeError):
            svc.result("fixed")                 # not finished yet


def test_unstageable_job_id_leaves_no_ghost_job(tmp_path):
    """A job id the staging root cannot hold is refused before the
    service records the job: nothing queued, no id number used up."""
    with Service(staging=tmp_path / "svc") as svc:
        for bad in ("../x", ".x", "a/b"):
            with pytest.raises(ValueError, match="bad job id"):
                svc.submit(perf_request(), job_id=bad)
            assert bad not in svc
        assert len(svc.queue) == 0
        assert svc.submit(perf_request()).startswith("job-0000-")
        svc.run_until_idle(timeout=60)
    assert not (tmp_path / "x").exists()


@needs_fork
def test_mixed_tenant_batch_in_submission_order_on_pool(tmp_path):
    """The acceptance scenario: 9 jobs / 3 tenants / 3 apps on a
    2-worker pool; they dispatch in submission order, whatever the
    tenant, observable in the ``service.*`` counters.  The three tenants
    ask for the same three simulations, so the pool executes three jobs
    and the result cache serves the other six."""
    apps = ("matmul", "cholesky", "jacobi")
    batch = [JobRequest(app=app, config=PERF, tenant=tenant)
             for tenant in ("alice", "bob", "carol") for app in apps]
    assert len(batch) >= 8
    with Service(backends={"pool": Backend(workers=2)},
                 staging=tmp_path) as svc:
        ids = [svc.submit(req) for req in batch]
        svc.run_until_idle(timeout=300)
        results = [svc.result(job_id) for job_id in ids]
        dispatch = svc.dispatch_order()
        snap = svc.metrics.snapshot()
    assert all(r.state is JobState.DONE for r in results)
    executed = {r.job_id: r for r in results if r.backend == "pool"}
    served = [r for r in results if r.backend == "cache"]
    assert len(executed) == 3 and len(served) == 6
    assert {r.app for r in executed.values()} == set(apps)
    assert all(r.cached_from is None for r in executed.values())
    for r in served:
        assert executed[r.cached_from].app == r.app
        assert executed[r.cached_from].makespan == r.makespan
    assert dispatch == ids
    # Each tenant's share is observable in the counters.
    for tenant in ("alice", "bob", "carol"):
        assert snap[f"service.tenant.{tenant}.queued"] == 3
        assert snap[f"service.tenant.{tenant}.dispatched"] == 3
    assert snap["service.jobs_submitted"] == 9
    assert snap["service.jobs_dispatched"] == 9
    assert snap["service.jobs_completed"] == 9
    assert snap["service.backend.pool.completed"] == 3
    assert snap["service.backend.cache.completed"] == 6
    assert snap["service.cache.hits"] == 6
    assert snap["service.cache.misses"] == 3
    assert snap["service.queue.depth"] == 0
    assert snap["service.active"] == 0


@needs_fork
def test_worker_death_fails_job_and_queue_keeps_draining(tmp_path,
                                                         monkeypatch):
    """A job process dying mid-run (os._exit stand-in for a segfault)
    surfaces as a failed job naming the wait status; the remaining jobs
    still complete."""
    real = backends_mod.execute_request
    # Doomed by its content (its own size), not its tenant: jobs that
    # differ in scheduling fields only are one simulation.
    doomed_size = {"n": 128, "bs": 64}

    def fake(request):
        if request.size == doomed_size:
            os._exit(43)
        return real(request)

    monkeypatch.setattr(backends_mod, "execute_request", fake)
    with Service(backends={"pool": Backend(workers=2)},
                 staging=tmp_path) as svc:
        crash = svc.submit(perf_request(tenant="doomed", size=doomed_size))
        good = [svc.submit(perf_request()) for _ in range(3)]
        svc.run_until_idle(timeout=120)
        assert svc.state(crash) is JobState.FAILED
        assert "died" in svc.result(crash).error
        assert all(svc.state(j) is JobState.DONE for j in good)
        snap = svc.metrics.snapshot()
        assert snap["service.jobs_failed"] == 1
        assert snap["service.jobs_completed"] == 3


@pytest.mark.skipif(shutil.which("pgrep") is None,
                    reason="needs pgrep to find the job processes")
def test_killing_every_child_process_fails_only_the_running_job(
        tmp_path, monkeypatch):
    """The OOM-killer case: every process under the service is SIGKILLed
    while a pool job runs.  That job fails, naming the wait status; the
    backend is not broken by it, so a job submitted afterwards is done."""
    real = backends_mod.execute_request
    slow_size = {"n": 128, "bs": 64}

    def fake(request):
        if request.size == slow_size:
            time.sleep(60)
        return real(request)

    monkeypatch.setattr(backends_mod, "execute_request", fake)
    with Service(backends={"pool": Backend(workers=2)},
                 staging=tmp_path) as svc:
        victim = svc.submit(perf_request(size=slow_size))
        svc.pump()
        assert svc.state(victim) is JobState.RUNNING
        children = subprocess.run(
            ["pgrep", "-P", str(os.getpid())], capture_output=True,
            text=True).stdout.split()
        assert children                           # the job process, at least
        for pid in children:
            os.kill(int(pid), signal.SIGKILL)
        svc.run_until_idle(timeout=30)
        assert svc.state(victim) is JobState.FAILED
        assert "died (wait status 0x9)" in svc.result(victim).error
        after = svc.submit(perf_request())
        svc.run_until_idle(timeout=120)
        assert svc.state(after) is JobState.DONE


@needs_fork
@pytest.mark.parametrize("how", ["dies", "raises"])
def test_failed_leader_promotes_first_follower(tmp_path, monkeypatch, how):
    """Four jobs, one content; the first execution fails.  The failure is
    that job's alone: the first follower re-executes on the freed slot
    and the other two are served from it."""
    real = backends_mod.execute_request
    marker = tmp_path / "first-execution-failed"

    def fake(request):
        if not marker.exists():
            marker.touch()
            if how == "dies":
                os._exit(43)
            raise RuntimeError("flaky host")
        return real(request)

    monkeypatch.setattr(backends_mod, "execute_request", fake)
    with Service(backends={"pool": Backend(workers=2)},
                 staging=tmp_path / "svc") as svc:
        ids = [svc.submit(perf_request(tenant=t))
               for t in ("alice", "bob", "carol", "dave")]
        svc.run_until_idle(timeout=120)
        results = [svc.result(job_id) for job_id in ids]
        snap = svc.metrics.snapshot()
    assert [r.state for r in results] == [JobState.FAILED] + \
        [JobState.DONE] * 3
    assert ("died" if how == "dies" else "flaky host") in results[0].error
    assert [r.backend for r in results] == ["pool", "pool", "cache", "cache"]
    assert [r.cached_from for r in results] == [None, None, ids[1], ids[1]]
    assert results[2].makespan == results[1].makespan
    assert snap["service.jobs_failed"] == 1
    assert snap["service.jobs_completed"] == 3
    assert snap["service.cache.misses"] == 2
    assert snap["service.cache.hits"] == 2
    assert snap["service.cache.hits"] + snap["service.cache.misses"] == \
        snap["service.jobs_dispatched"] == 4


def test_head_of_line_dispatch_respects_queue_order(tmp_path):
    """Dispatch is head-of-line: while the single eager slot is busy,
    nothing bypasses the queue's chosen next job."""
    with Service(staging=tmp_path) as svc:
        first = svc.submit(perf_request(tenant="alice"))
        second = svc.submit(perf_request(tenant="bob", priority=1))
        third = svc.submit(perf_request(tenant="alice"))
        svc.run_until_idle(timeout=60)
        order = svc.dispatch_order()
    # The priority-1 job overtakes the queued alice job but not the
    # already-submitted order of the head element at each pump.
    assert order.index(second) < order.index(third)
    assert set(order) == {first, second, third}
