"""JobRequest / JobResult: validation and diff-based serialization.

The contract (see :mod:`repro.service.job`): a request is pure validated
data, ``to_dict`` writes only non-default fields, and
``from_dict(to_dict())`` round-trips bit-identically — including nested
RuntimeConfig and FaultPlan values, which carry their own diff-based
encodings.
"""

import json

import pytest

from repro.faults.plan import FaultEvent, FaultPlan
from repro.runtime.config import RuntimeConfig
from repro.service import JobRequest, JobResult, JobState


def test_minimal_request_serializes_to_app_only():
    req = JobRequest(app="matmul")
    assert req.to_dict() == {"app": "matmul"}
    assert JobRequest.from_dict({"app": "matmul"}) == req


def test_full_request_round_trips_bit_identically():
    plan = FaultPlan(events=(FaultEvent(kind="gpu_loss", at=0.5, node=1,
                                        gpu=0),),
                     seed=7)
    req = JobRequest(
        app="cholesky", version="ompss", machine="cluster", count=4,
        size={"n": 512, "bs": 128},
        config=RuntimeConfig(functional=False, cache_policy="nocache"),
        scheduler="cp", fault_plan=plan, collect_trace=False,
        tenant="alice", priority=2,
        run_kwargs={"flush": False})
    doc = req.to_dict()
    # The document is JSON-clean and diff-based: default fields absent.
    doc = json.loads(json.dumps(doc))
    assert "version" not in doc           # default
    assert doc["machine"] == "cluster"
    assert doc["config"] == {"functional": False, "cache_policy": "nocache"}
    clone = JobRequest.from_dict(doc)
    assert clone == req


def test_resolved_config_applies_overrides():
    plan = FaultPlan(events=(FaultEvent(kind="gpu_loss", at=1.0, node=0,
                                        gpu=0),))
    req = JobRequest(app="matmul", config=RuntimeConfig(functional=False),
                     scheduler="ws", fault_plan=plan)
    cfg = req.resolved_config()
    assert cfg.functional is False
    assert cfg.scheduler == "ws"
    assert cfg.fault_plan is plan
    # The request's own config is untouched (with_ copies).
    assert req.config.scheduler != "ws" or req.config.fault_plan is None


@pytest.mark.parametrize("kwargs", [
    {"app": "nosuchapp"},
    {"app": "matmul", "machine": "laptop"},
    {"app": "matmul", "version": "fortran"},
    {"app": "matmul", "count": 0},
    {"app": "matmul", "scheduler": "nosuchpolicy"},
    {"app": "matmul", "tenant": ""},
    # a tenant is part of default job ids, which name staging directories
    {"app": "matmul", "tenant": "a/b"},
    {"app": "matmul", "tenant": ".x"},
    {"app": "matmul", "tenant": "a\0b"},
    {"app": "matmul", "sanitize": True, "version": "mpi_cuda"},
    {"app": "matmul", "sanitize": True,
     "config": RuntimeConfig(functional=False)},
])
def test_invalid_requests_rejected(kwargs):
    with pytest.raises((ValueError, TypeError)):
        JobRequest(**kwargs)


def test_unknown_field_is_refused():
    """A staged ``request.json`` of another schema (here one still
    carrying the removed ``cost`` field) does not decode."""
    with pytest.raises(TypeError, match="cost"):
        JobRequest.from_dict({"app": "matmul", "cost": 2.0})


def test_job_state_terminality():
    assert not JobState.QUEUED.terminal
    assert not JobState.RUNNING.terminal
    assert JobState.DONE.terminal
    assert JobState.FAILED.terminal


def test_job_result_round_trips():
    res = JobResult(job_id="j1", state=JobState.DONE, app="matmul",
                    version="ompss", tenant="alice", backend="pool",
                    makespan=1.25, metric=2.5, metric_unit="GFLOPS",
                    findings=[{"kind": "missing_output"}],
                    artifacts={"result": "result.json"})
    doc = json.loads(json.dumps(res.to_dict()))
    clone = JobResult.from_dict(doc)
    assert clone.state is JobState.DONE
    assert clone.makespan == res.makespan
    assert clone.findings == res.findings
    assert clone.artifacts == res.artifacts
