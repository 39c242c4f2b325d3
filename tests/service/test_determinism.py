"""The determinism pin: eager and pool backends are bit-identical.

A simulation depends only on its :class:`JobRequest` (machines, tracer
and sanitizer are built fresh per run; the pool's fork isolation is
defensive, not semantic), so the same request must produce the same
makespan, metric and counter snapshot whichever backend runs it, exactly
as ``tests/bench/test_sweep.py`` pins for figure sweeps.

The service's result cache rests on the stronger form pinned last: the
*whole payload* of a request (trace text, findings, stdout and counters
included) repeats, also when the same process executes it twice.
"""

import os
import time

import pytest

from repro.faults import FaultEvent, FaultPlan
from repro.runtime.config import RuntimeConfig
from repro.service import (Backend, JobRequest, Service,
                           execute_request)

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="pool backend requires POSIX fork")

#: Canonical requests spanning perf-mode multi-GPU, a cluster shape and
#: a functional sanitized run — the service analogue of a figure grid.
REQUESTS = [
    JobRequest(app="matmul", size={"n": 256, "bs": 64}, count=2,
               config=RuntimeConfig(functional=False,
                                    scheduler="affinity")),
    JobRequest(app="stream", machine="cluster", count=2,
               config=RuntimeConfig(functional=False)),
    JobRequest(app="jacobi", sanitize=True),
]


def run_all(svc: Service):
    ids = [svc.submit(req) for req in REQUESTS]
    svc.run_until_idle(timeout=300)
    return [svc.result(job_id) for job_id in ids]


def test_eager_and_pool_results_bit_identical(tmp_path):
    with Service(staging=tmp_path / "eager") as svc:
        eager = run_all(svc)
    with Service(backends={"pool": Backend(workers=2)},
                 staging=tmp_path / "pool") as svc:
        pooled = run_all(svc)
    for e, p in zip(eager, pooled):
        assert e.state is p.state
        assert e.makespan == p.makespan          # bit-identical float
        assert e.metric == p.metric
        assert e.findings == p.findings
        assert e.metrics == p.metrics


#: One request per payload ingredient: the Chrome trace (a traced perf
#: job), the cluster layers, sanitizer findings, fault recovery.
PAYLOAD_REQUESTS = {
    "traced-perf": REQUESTS[0],
    "cluster": REQUESTS[1],
    "sanitized-functional": REQUESTS[2],
    "recoverable-fault": JobRequest(
        app="matmul", size={"n": 256, "bs": 64}, count=2,
        config=RuntimeConfig(functional=False),
        fault_plan=FaultPlan(events=(FaultEvent(kind="kernel_abort",
                                                nth=2),))),
}


def _pool_payload(request: JobRequest) -> dict:
    backend = Backend(workers=1)
    try:
        backend.start("job", request)
        deadline = time.monotonic() + 120
        while (outcome := backend.poll("job")) is None:
            assert time.monotonic() < deadline, "pool job did not finish"
            time.sleep(0.005)
    finally:
        backend.close()
    kind, payload = outcome
    assert kind == "ok", payload
    return payload


@pytest.mark.parametrize("name", PAYLOAD_REQUESTS)
def test_payload_repeats_in_process_and_on_the_pool(name):
    request = PAYLOAD_REQUESTS[name]
    first = execute_request(request)
    again = execute_request(request)              # same process, warm state
    pooled = _pool_payload(request)
    assert first["trace"] and first["metrics"]    # nothing vacuous below
    if request.fault_plan is not None:
        assert first["metrics"]["faults.tasks_reexecuted"] > 0
    assert again == first
    assert pooled == first
