"""``python -m repro.service`` CLI: the staged submit → worker → fetch
round trip, without a daemon (the staging directory is the queue)."""

import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from repro.service import cli
from repro.service.cli import main

REPO = Path(__file__).resolve().parents[2]


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def submit(capsys, staging, *extra):
    code, out = run(capsys, "submit", "--staging", str(staging),
                    "--app", "matmul", "--size", "n=256,bs=64", "--perf",
                    *extra)
    assert code == 0
    return out.strip()


def test_submit_worker_status_artifacts_round_trip(tmp_path, capsys):
    staging = tmp_path / "svc"
    job_id = submit(capsys, staging, "--tenant", "alice")
    assert job_id.startswith("alice-matmul-")

    # Before the worker runs, the job is staged queued.
    code, out = run(capsys, "status", job_id, "--staging", str(staging))
    assert code == 0
    assert json.loads(out)["state"] == "queued"

    code, out = run(capsys, "worker", "--staging", str(staging))
    assert code == 0
    assert f"{job_id}: done" in out

    code, out = run(capsys, "status", job_id, "--staging", str(staging))
    assert json.loads(out)["state"] == "done"

    code, out = run(capsys, "artifacts", job_id, "--staging", str(staging))
    assert code == 0
    names = {line.split("\t")[0] for line in out.strip().splitlines()}
    assert {"request", "status", "result", "metrics", "trace",
            "stdout"} <= names

    code, out = run(capsys, "artifacts", job_id, "--staging", str(staging),
                    "--fetch", "result")
    assert code == 0
    doc = json.loads(out)
    assert doc["state"] == "done"
    assert doc["makespan"] > 0


def test_submit_from_request_file(tmp_path, capsys):
    staging = tmp_path / "svc"
    request_file = tmp_path / "request.json"
    request_file.write_text(json.dumps(
        {"app": "jacobi", "tenant": "bob",
         "config": {"functional": False}}))
    code, out = run(capsys, "submit", "--staging", str(staging),
                    "--request", str(request_file), "--job-id", "bob-j1")
    assert code == 0
    assert out.strip() == "bob-j1"
    code, out = run(capsys, "worker", "--staging", str(staging))
    assert code == 0
    assert "bob-j1: done" in out


def test_worker_strict_flags_failed_jobs(tmp_path, capsys):
    staging = tmp_path / "svc"
    request_file = tmp_path / "bad.json"
    request_file.write_text(json.dumps(
        {"app": "matmul", "config": {"functional": False},
         "run_kwargs": {"nonsense": True}}))
    run(capsys, "submit", "--staging", str(staging),
        "--request", str(request_file), "--job-id", "bad-1")
    code, out = run(capsys, "worker", "--staging", str(staging),
                    "--strict")
    assert code == 1
    assert "bad-1: failed" in out
    code, _ = run(capsys, "worker", "--staging", str(staging))
    assert code == 0                  # non-strict drains cleanly


def test_worker_skips_already_terminal_jobs(tmp_path, capsys):
    staging = tmp_path / "svc"
    job_id = submit(capsys, staging)
    run(capsys, "worker", "--staging", str(staging))
    # A second pass adopts nothing (the job is already done) and exits 0.
    code, out = run(capsys, "worker", "--staging", str(staging))
    assert code == 0
    assert job_id not in out


@pytest.mark.parametrize("argv", [
    ["--app", "matmul", "--size", "n256"],
    ["--app", "matmul", "--size", "n=abc"],
    ["--app", "matmul", "--count", "0"],
    ["--request", "truncated.json"],
], ids=["size-no-equals", "size-not-int", "count-zero", "truncated-request"])
def test_submit_rejects_malformed_size(tmp_path, capsys, argv):
    """Malformed input ends ``submit`` with one line, staging nothing."""
    (tmp_path / "truncated.json").write_text('{"app": "matm')
    staging = tmp_path / "svc"
    argv = [str(tmp_path / arg) if arg.endswith(".json") else arg
            for arg in argv]
    with pytest.raises(SystemExit, match="^bad ") as excinfo:
        main(["submit", "--staging", str(staging), *argv])
    assert "\n" not in str(excinfo.value)
    assert not staging.exists()


def test_missing_artifact_names_available_ones(tmp_path, capsys):
    staging = tmp_path / "svc"
    job_id = submit(capsys, staging)
    with pytest.raises(SystemExit, match="no 'sanitizer'"):
        main(["artifacts", job_id, "--staging", str(staging),
              "--fetch", "sanitizer"])


@pytest.mark.parametrize("strict", [False, True])
def test_worker_fails_malformed_requests_and_keeps_draining(tmp_path, capsys,
                                                            strict):
    """A staged ``request.json`` or ``status.json`` the worker cannot
    decode fails that job (reason staged beside it) instead of killing
    the worker: the valid job sorted after the bad ones still runs.  A
    job with no ``status.json`` yet is a submission in flight, left alone."""
    staging = tmp_path / "svc"
    queued = '{"job_id": "%s", "state": "queued", "tenant": "mallory"}'
    good_request = json.dumps({"app": "matmul",
                               "config": {"functional": False}})
    # job id -> (request.json, status.json or None, expected error)
    bad = {
        "a-truncated": ('{"app": "matm', queued,
                        "bad request.json: JSONDecodeError"),
        "b-unknown-app": (json.dumps({"app": "linpack"}), queued,
                          "bad request.json: ValueError"),
        "c-newer-schema": (json.dumps({"app": "matmul", "gpu_kind": "x"}),
                           queued, "bad request.json: TypeError"),
        "d-truncated-status": (good_request, '{"job_id": "%s", "sta',
                               "bad status.json: JSONDecodeError"),
        "e-list-status": (good_request, "[1, 2]",
                          "bad status.json: TypeError"),
        # a RuntimeConfig field that no longer exists
        "g-removed-field": (json.dumps({"app": "matmul", "config": {
            "functional": False, "adaptive_datamove": True}}), queued,
            "bad request.json: TypeError"),
        "h-removed-field": (json.dumps({"app": "matmul", "config": {
            "smp_workers": 2}}), queued, "bad request.json: TypeError"),
    }
    in_flight = {"f-no-status-yet": (good_request, None, None)}
    for job_id, (request, status, _) in {**bad, **in_flight}.items():
        (staging / job_id).mkdir(parents=True)
        (staging / job_id / "request.json").write_text(request)
        if status is not None:
            (staging / job_id / "status.json").write_text(
                status % job_id if "%s" in status else status)
    submit(capsys, staging, "--job-id", "z-good")

    argv = ["worker", "--staging", str(staging)] + ["--strict"] * strict
    code, out = run(capsys, *argv)
    assert code == (1 if strict else 0)
    assert "z-good: done" in out
    assert json.loads((staging / "z-good" / "result.json").read_text()
                      )["state"] == "done"
    for job_id, (_, staged_status, error) in bad.items():
        status = json.loads((staging / job_id / "status.json").read_text())
        result = json.loads((staging / job_id / "result.json").read_text())
        assert status["state"] == result["state"] == "failed"
        assert status["tenant"] == ("mallory" if staged_status is queued
                                    else "")
        assert status["error"] == result["error"]
        assert status["error"].startswith(error)
        assert len(status["error"].splitlines()) == 1
        assert out.count(f"{job_id}: failed") == 1
    for job_id, field in (("g-removed-field", "adaptive_datamove"),
                          ("h-removed-field", "smp_workers")):
        assert field in json.loads(
            (staging / job_id / "status.json").read_text())["error"]
    assert sorted(p.name for p in (staging / "f-no-status-yet").iterdir()) \
        == ["request.json"]
    assert "f-no-status-yet" not in out


def test_worker_watch_adopts_jobs_submitted_between_passes(tmp_path, capsys,
                                                           monkeypatch):
    """``--watch`` against an injected clock: the first sleep is when a
    second job gets submitted, the second sleep is the operator's Ctrl-C.
    Both jobs run, each reported once."""
    staging = tmp_path / "svc"
    submit(capsys, staging, "--job-id", "first")
    sleeps = []

    def sleep(seconds):
        sleeps.append(seconds)
        if len(sleeps) == 2:
            raise KeyboardInterrupt
        main(["submit", "--staging", str(staging), "--app", "matmul",
              "--size", "n=256,bs=64", "--perf", "--job-id", "second"])

    monkeypatch.setattr(cli, "time", types.SimpleNamespace(sleep=sleep))
    with pytest.raises(KeyboardInterrupt):
        main(["worker", "--staging", str(staging), "--watch", "0.25"])
    out = capsys.readouterr().out
    assert sleeps == [0.25, 0.25]
    for job_id in ("first", "second"):
        assert out.count(f"{job_id}: done") == 1
        assert json.loads((staging / job_id / "status.json").read_text()
                          )["state"] == "done"


#: ``worker`` whose every job runs for ten minutes: the process to kill.
HANGING_WORKER = """\
import sys, time
from repro.service import backends, cli
backends.execute_request = lambda request: time.sleep(600)
sys.exit(cli.main(sys.argv[1:]))
"""


def test_killed_workers_running_job_is_adopted_by_the_next_worker(
        tmp_path, capsys):
    """A ``worker`` SIGKILLed mid-job leaves the job ``running``, naming
    the dead process as its worker.  While that process lives, another
    worker leaves the job alone; once it is gone (and reaped — a zombie
    still holds its pid), the next worker re-adopts and finishes it."""
    staging = tmp_path / "svc"
    submit(capsys, staging, "--job-id", "orphan")
    status_file = staging / "orphan" / "status.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    worker = subprocess.Popen(
        [sys.executable, "-c", HANGING_WORKER, "worker", "--staging",
         str(staging)], env=env)
    try:
        deadline = time.monotonic() + 120
        while (status := json.loads(status_file.read_text())
               )["state"] != "running":
            assert worker.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        assert status["worker"] == worker.pid
        code, out = run(capsys, "worker", "--staging", str(staging))
        assert (code, out) == (0, "")                 # its worker is alive
    finally:
        worker.kill()
        worker.wait(timeout=60)
    code, out = run(capsys, "worker", "--staging", str(staging), "--strict")
    assert (code, out) == (0, "orphan: done\n")
    status = json.loads(status_file.read_text())
    assert status["state"] == "done"
    assert json.loads((staging / "orphan" / "result.json").read_text()
                      )["makespan"] > 0
