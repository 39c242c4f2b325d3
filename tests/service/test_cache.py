"""The result cache: one execution per distinct request per ``Service``.

Two halves.  *Key hygiene*: ``JobRequest.content_key`` ignores exactly
the scheduling fields and is equal for every spelling of one run.
*Service semantics*: hit / join / miss / promotion, head-of-line order,
failures never shared, results and bundles independent of each other,
and counters that are exact whatever the backends' timing.
"""

import dataclasses
import json
import os
import time
import types

import numpy as np
import pytest

from repro.faults import FaultEvent, FaultPlan
from repro.runtime.config import RuntimeConfig
from repro.service import Backend, JobRequest, JobState, Service, StagingDir
from repro.service import api
from repro.service.job import SCHEDULING_FIELDS

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="pool backend requires POSIX fork")

PERF = RuntimeConfig(functional=False)
PLAN = FaultPlan(events=(FaultEvent(kind="kernel_abort", nth=2),))


# ----------------------------------------------------------------------
# The key
# ----------------------------------------------------------------------

BASE = JobRequest(app="matmul", size={"n": 256, "bs": 64})
#: one other valid value per field.  A field added to ``JobRequest`` has
#: no entry and fails the test below until it is given one — and with it
#: a decision: content (the key must change) or ``SCHEDULING_FIELDS``.
OTHER_VALUE = {
    "app": "cholesky",
    "version": "mpi_cuda",
    "machine": "cluster",
    "count": 2,
    "size": {"n": 512, "bs": 64},
    "config": RuntimeConfig(overlap=True),
    "scheduler": "cp",
    "fault_plan": PLAN,
    "sanitize": True,
    "collect_trace": False,
    "tenant": "alice",
    "priority": 3,
    "run_kwargs": {"init": "par"},
}


@pytest.mark.parametrize("name",
                         [f.name for f in dataclasses.fields(JobRequest)])
def test_key_ignores_scheduling_fields_and_nothing_else(name):
    assert name in OTHER_VALUE, \
        f"new JobRequest field {name!r}: content or scheduling?"
    changed = dataclasses.replace(BASE, **{name: OTHER_VALUE[name]})
    assert changed != BASE
    if name in SCHEDULING_FIELDS:
        assert changed.content_key() == BASE.content_key()
    else:
        assert changed.content_key() != BASE.content_key()


def test_every_spelling_of_one_run_shares_a_key():
    assert BASE.content_key() == \
        dataclasses.replace(BASE, config=RuntimeConfig()).content_key()
    assert dataclasses.replace(BASE, scheduler="cp").content_key() == \
        dataclasses.replace(
            BASE, config=RuntimeConfig(scheduler="cp")).content_key()
    assert dataclasses.replace(BASE, fault_plan=PLAN).content_key() == \
        dataclasses.replace(
            BASE, config=RuntimeConfig(fault_plan=PLAN)).content_key()
    # The override wins over the config, as in resolved_config().
    assert dataclasses.replace(
        BASE, scheduler="cp",
        config=RuntimeConfig(scheduler="bf")).content_key() == \
        dataclasses.replace(BASE, scheduler="cp").content_key()
    # A staged request keeps its key through request.json.
    full = dataclasses.replace(BASE, fault_plan=PLAN, scheduler="cp",
                               tenant="alice", config=PERF)
    assert JobRequest.from_dict(
        json.loads(json.dumps(full.to_dict()))).content_key() == \
        full.content_key()


def test_request_json_cannot_encode_has_no_key():
    assert dataclasses.replace(
        BASE, run_kwargs={"verify": np.False_}).content_key() is None


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------

class HeldBackend(Backend):
    """An in-process backend that executes a job only once the test
    releases it — the timing of a pool, under the test's control."""

    def __init__(self):
        super().__init__()
        self.held = {}

    def start(self, job_id, request):
        self.held[job_id] = request

    def release(self, job_id):
        super().start(job_id, self.held.pop(job_id))

    def poll(self, job_id):
        return None if job_id in self.held else super().poll(job_id)

    def active(self):
        return (*self.held, *super().active())


def perf(n: int = 256, **kwargs) -> JobRequest:
    """Perf-mode matmul; ``n`` is what makes two of them distinct."""
    return JobRequest(app="matmul", size={"n": n, "bs": 64}, config=PERF,
                      **kwargs)


def held_service(tmp_path):
    backend = HeldBackend()
    return backend, Service(backends={"held": backend}, staging=tmp_path)


def finish(svc, backend, job_id):
    backend.release(job_id)
    svc.pump()
    assert svc.state(job_id).terminal


def test_run_until_idle_with_no_process_to_wait_on_fails_at_once(
        tmp_path, monkeypatch):
    """A held job has no pipe and will not finish by itself: waiting for
    it could only hang, so ``run_until_idle`` (no timeout) raises at once,
    naming it — without a sleep or a ``select``."""
    def no_wait(*args):
        raise AssertionError("waited for a job that cannot finish")

    monkeypatch.setattr(api, "select", types.SimpleNamespace(select=no_wait))
    monkeypatch.setattr(api, "time", types.SimpleNamespace(
        monotonic=no_wait, sleep=no_wait, perf_counter=time.perf_counter))
    backend, svc = held_service(tmp_path)
    with svc:
        stuck = svc.submit(perf())
        behind = svc.submit(perf(n=128))
        with pytest.raises(RuntimeError, match=f"running jobs {stuck}$"):
            svc.run_until_idle()
        assert svc.state(behind) is JobState.QUEUED
        finish(svc, backend, stuck)
        assert svc.state(behind) is JobState.RUNNING


def test_join_then_hit_while_the_only_slot_is_busy(tmp_path):
    backend, svc = held_service(tmp_path)
    with svc:
        leader = svc.submit(perf(tenant="alice"))
        joiner = svc.submit(perf(tenant="bob", priority=-1))
        svc.pump()
        # Same content, still executing: joined without a slot of its own.
        assert backend.active() == (leader,)
        assert svc.state(joiner) is JobState.RUNNING
        assert svc.status(joiner)["backend"] == "cache"
        assert svc.staging.read_status(joiner)["backend"] == "cache"
        finish(svc, backend, leader)
        assert svc.state(joiner) is JobState.DONE

        blocker = svc.submit(perf(n=128, tenant="carol"))
        late = svc.submit(perf(tenant="carol"))       # FIFO behind it
        svc.pump()
        # The one slot is taken by other content; the hit needs none.
        assert backend.active() == (blocker,)
        assert svc.state(late) is JobState.DONE
        finish(svc, backend, blocker)

        assert svc.result(leader).backend == "held"
        assert svc.result(leader).cached_from is None
        for job_id in (joiner, late):
            result = svc.result(job_id)
            assert (result.backend, result.cached_from) == ("cache", leader)
            assert result.makespan == svc.result(leader).makespan
            assert result.tenant == svc.status(job_id)["tenant"]
            staged = svc.staging.artifacts(job_id)["result"].read_text()
            assert json.loads(staged)["cached_from"] == leader
            assert svc.staging.read_status(job_id)["backend"] == "cache"
        assert svc.dispatch_order() == [leader, joiner, blocker, late]
        snap = svc.metrics.snapshot()
    assert snap["service.cache.misses"] == 2
    assert snap["service.cache.hits"] == 2
    assert snap["service.backend.cache.completed"] == 2
    assert snap["service.jobs_dispatched"] == 4


def test_hit_behind_a_blocked_miss_does_not_overtake(tmp_path):
    backend, svc = held_service(tmp_path)
    with svc:
        first = svc.submit(perf())
        svc.pump()
        finish(svc, backend, first)
        running = svc.submit(perf(n=128))
        svc.pump()
        blocked = svc.submit(perf(n=192))        # a miss; the slot is busy
        would_hit = svc.submit(perf())           # FIFO behind it
        assert svc.pump() == 0
        assert svc.state(blocked) is JobState.QUEUED
        assert svc.state(would_hit) is JobState.QUEUED
        finish(svc, backend, running)
        assert svc.state(blocked) is JobState.RUNNING
        assert svc.state(would_hit) is JobState.DONE
        assert svc.dispatch_order() == [first, running, blocked, would_hit]
        finish(svc, backend, blocked)


def test_failure_is_not_stored(tmp_path):
    bad = perf(run_kwargs={"nonsense": True})
    assert bad.content_key() is not None
    with Service(staging=tmp_path) as svc:
        first = svc.submit(bad)
        svc.run_until_idle(timeout=60)
        again = svc.submit(dataclasses.replace(bad, tenant="bob"))
        svc.run_until_idle(timeout=60)
        for job_id in (first, again):
            result = svc.result(job_id)
            assert result.state is JobState.FAILED
            assert result.backend == "eager"          # executed, both times
            assert result.cached_from is None
            assert "TypeError" in result.error
        snap = svc.metrics.snapshot()
    assert snap["service.cache.misses"] == 2
    assert "service.cache.hits" not in snap
    assert snap["service.jobs_failed"] == 2


class ReprStaging(StagingDir):
    """Stages ``request.json`` lossily (``repr`` for what JSON cannot
    encode), so an in-process caller can submit such a request at all."""

    def write_request(self, job_id, request):
        path = self.job_dir(job_id, create=True) / "request.json"
        path.write_text(json.dumps(request.to_dict(), default=repr))
        return path


def test_request_without_a_key_is_always_executed(tmp_path):
    request = perf(run_kwargs={"verify": np.False_})
    with Service(staging=ReprStaging(tmp_path)) as svc:
        ids = [svc.submit(request), svc.submit(request)]
        svc.run_until_idle(timeout=60)
        results = [svc.result(job_id) for job_id in ids]
        snap = svc.metrics.snapshot()
    assert [r.state for r in results] == [JobState.DONE] * 2
    assert [r.backend for r in results] == ["eager", "eager"]
    assert snap["service.cache.misses"] == 2
    assert "service.cache.hits" not in snap


def test_results_alias_nothing_of_each_other(tmp_path):
    request = JobRequest(app="jacobi", sanitize=True)
    with Service(staging=tmp_path) as svc:
        one = svc.submit(dataclasses.replace(request, tenant="alice"))
        two = svc.submit(dataclasses.replace(request, tenant="bob"))
        svc.run_until_idle(timeout=120)
        assert svc.result(two).cached_from == one
        pristine = json.loads(json.dumps(svc.result(one).metrics))
        svc.result(one).metrics.clear()
        svc.result(one).findings.append({"kind": "forged"})
        assert svc.result(two).metrics == pristine          # the twin
        assert svc.result(two).findings == []
        svc.result(two).metrics["sim.events"] = -1
        # Neither edit reaches a job served afterwards.
        three = svc.submit(dataclasses.replace(request, tenant="carol"))
        svc.run_until_idle(timeout=120)
        result = svc.result(three)
        assert result.cached_from == one
        assert result.metrics == pristine
        assert result.findings == []
        assert json.loads(svc.fetch_artifacts(three)["metrics"]
                          .read_text()) == pristine


def test_hit_stages_a_complete_self_contained_bundle(tmp_path):
    request = JobRequest(app="jacobi", sanitize=True)
    with Service(staging=tmp_path) as svc:
        executed = svc.submit(dataclasses.replace(request, tenant="alice"))
        served = svc.submit(dataclasses.replace(request, tenant="bob"))
        svc.run_until_idle(timeout=120)
        theirs = svc.fetch_artifacts(executed)
        ours = svc.fetch_artifacts(served)
    # (the bundles outlive the service: tmp_path is the staging root)
    assert set(ours) == set(theirs) == {
        "request", "status", "result", "metrics", "trace", "sanitizer",
        "stdout"}
    for name in ("metrics", "trace", "sanitizer", "stdout"):
        assert ours[name] != theirs[name]                  # its own file…
        assert ours[name].read_bytes() == theirs[name].read_bytes()
    ours_doc = json.loads(ours["result"].read_text())
    theirs_doc = json.loads(theirs["result"].read_text())
    assert ours_doc["cached_from"] == executed
    assert theirs_doc["cached_from"] is None
    assert (ours_doc["backend"], theirs_doc["backend"]) == ("cache", "eager")
    assert ours_doc["tenant"] != theirs_doc["tenant"]
    assert ours_doc["makespan"] == theirs_doc["makespan"]
    assert ours_doc["artifacts"] == theirs_doc["artifacts"]


def test_latency_histograms_observe_every_job_once(tmp_path):
    """Counts, not durations: a hit, a join, a miss and a failure each
    add one observation to each of the three host-time histograms."""
    with Service(staging=tmp_path) as svc:
        for request in (perf(), perf(tenant="bob"), perf(n=128),
                        perf(run_kwargs={"nonsense": True})):
            svc.submit(request)
        svc.run_until_idle(timeout=60)
        svc.submit(perf(tenant="carol"))
        svc.run_until_idle(timeout=60)
        snap = svc.metrics.snapshot()
    assert snap["service.jobs_submitted"] == 5
    assert snap["service.jobs_failed"] == 1
    for name in ("queue_wait", "run_wall", "total"):
        summary = snap[f"service.job.{name}"]
        assert summary["count"] == snap["service.jobs_submitted"], name
        assert summary["min"] >= 0, name
    assert snap["service.job.makespan"]["count"] == 4      # done jobs only


def nine_job_batch():
    return [JobRequest(app=app, config=PERF, tenant=tenant)
            for tenant in ("alice", "bob", "carol")
            for app in ("matmul", "cholesky", "jacobi")]


@needs_fork
def test_counters_and_results_do_not_depend_on_the_backends(tmp_path):
    """The nine-job batch has three distinct requests: 3 misses and 6
    hits, the same makespans and the same dispatch order whether the jobs
    run one at a time in-process or overlap on a pool."""
    shapes = {"eager": lambda: {"eager": Backend()},
              "pool-1": lambda: {"pool": Backend(workers=1)},
              "pool-2": lambda: {"pool": Backend(workers=2)}}
    seen = {}
    for shape, backends in shapes.items():
        with Service(backends=backends(),
                     staging=tmp_path / shape) as svc:
            ids = [svc.submit(request) for request in nine_job_batch()]
            svc.run_until_idle(timeout=300)
            snap = svc.metrics.snapshot()
            assert snap["service.jobs_dispatched"] == 9
            seen[shape] = (snap["service.cache.hits"],
                           snap["service.cache.misses"],
                           [svc.result(job_id).makespan for job_id in ids],
                           svc.dispatch_order())
    assert seen["eager"][:2] == (6, 3)
    assert len(set(seen["eager"][2])) == 3
    assert seen["pool-1"] == seen["eager"]
    assert seen["pool-2"] == seen["eager"]
