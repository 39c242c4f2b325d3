"""Backend contract: outcomes not exceptions, crash surfacing, capacity.

A failed job is a *result* (``("err", detail)``), never a backend
exception — that invariant is what lets one crashing job leave the
queue draining (pinned end-to-end in test_api.py).
"""

import ast
import os
import re
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.service import Backend, JobRequest
from repro.service import backends as backends_mod
from repro.runtime.config import RuntimeConfig

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="forked jobs require POSIX fork")

PERF = RuntimeConfig(functional=False)


def perf_request(**kwargs):
    return JobRequest(app="matmul", size={"n": 256, "bs": 64}, config=PERF,
                      **kwargs)


def test_eager_backend_returns_ok_payload():
    backend = Backend()
    backend.start("j1", perf_request())
    assert backend.active() == ("j1",)
    kind, payload = backend.poll("j1")
    assert kind == "ok"
    assert payload["makespan"] > 0
    assert payload["trace"] is not None
    # Outcomes are delivered exactly once.
    assert backend.active() == ()
    with pytest.raises(KeyError):
        backend.poll("j1")


def test_eager_backend_surfaces_job_error_as_outcome():
    backend = Backend()
    backend.start("bad", perf_request(run_kwargs={"nonsense": True}))
    kind, detail = backend.poll("bad")
    assert kind == "err"
    assert "TypeError" in detail or "nonsense" in detail


def test_slot_count_validated():
    """In-process execution has one slot; forked execution one per
    worker.  Counting slots forks nothing."""
    assert Backend().free_slots() == 1
    assert Backend(workers=3).free_slots() == 3
    with pytest.raises(ValueError):
        Backend(workers=-1)


@needs_fork
def test_pool_backend_runs_jobs_and_reports_capacity():
    with_close = Backend(workers=2)
    try:
        assert with_close.free_slots() == 2
        with_close.start("j1", perf_request())
        assert with_close.free_slots() == 1
        while (outcome := with_close.poll("j1")) is None:
            pass
        kind, payload = outcome
        assert kind == "ok"
        assert payload["makespan"] > 0
    finally:
        with_close.close()


@needs_fork
def test_pool_backend_surfaces_child_error_with_traceback():
    backend = Backend(workers=1)
    try:
        backend.start("bad", perf_request(run_kwargs={"nonsense": True}))
        while (outcome := backend.poll("bad")) is None:
            pass
        kind, detail = outcome
        assert kind == "err"
        assert "TypeError" in detail
    finally:
        backend.close()


def wait_for(backend, job_id):
    deadline = time.monotonic() + 120
    while (outcome := backend.poll(job_id)) is None:
        assert time.monotonic() < deadline, f"{job_id} did not finish"
        time.sleep(0.005)
    return outcome


@needs_fork
def test_pool_backend_surfaces_dead_job_process(monkeypatch):
    """A job process that dies without reporting (os._exit as the segfault
    stand-in, SIGKILL as the OOM-killer's) becomes a failed outcome naming
    the wait status — never a hang, never a backend exception — and the
    backend runs the next job as if nothing had happened."""
    backend = Backend(workers=1)
    try:
        for die, status in (
                (lambda request: os._exit(42), "0x2a00"),
                (lambda request: os.kill(os.getpid(), signal.SIGKILL), "0x9")):
            with monkeypatch.context() as patched:
                patched.setattr(backends_mod, "execute_request", die)
                backend.start("crash", perf_request())    # forks: patch is in
            assert wait_for(backend, "crash") == \
                ("err", f"process died (wait status {status})")
            backend.start("good", perf_request())
            kind, payload = wait_for(backend, "good")
            assert kind == "ok"
            assert payload["makespan"] > 0
    finally:
        backend.close()


@needs_fork
def test_pool_backend_is_processes_only_and_close_leaves_none(monkeypatch):
    """Two jobs in flight are two child processes and no thread in the
    service process; ``close`` kills and reaps them, so afterwards there
    is no child left to wait for — not even a zombie."""
    monkeypatch.setattr(backends_mod, "execute_request",
                        lambda request: time.sleep(60))
    backend = Backend(workers=2)
    try:
        backend.start("a", perf_request())
        backend.start("b", perf_request())
        assert backend.poll("a") is None and backend.poll("b") is None
        assert backend.free_slots() == 0
        assert threading.active_count() == 1
    finally:
        backend.close()
    assert backend.active() == ()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    backend.close()                               # idempotent


REPO = Path(__file__).resolve().parents[2]


def test_one_backend_class_and_one_sleep():
    """The design budget: ``backends.py`` defines one class, the only
    ``time.sleep`` in the service is ``worker --watch``'s interval (every
    other wait is a ``select`` on job pipes), and the three backend
    classes this one replaced are gone, with no alias left behind."""
    service = REPO / "src" / "repro" / "service"
    tree = ast.parse((service / "backends.py").read_text())
    assert [node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)] == ["Backend"]
    sleeps = [line for path in sorted(service.glob("*.py"))
              for line in path.read_text().splitlines()
              if re.search(r"time\.sleep", line)]
    assert sleeps == ["            time.sleep(args.watch)"]
    gone = re.compile("|".join(prefix + "Backend"
                               for prefix in ("Abstract", "Eager", "Pool")))
    for top in ("src", "tests"):
        for path in (REPO / top).rglob("*.py"):
            assert not gone.search(path.read_text()), path
