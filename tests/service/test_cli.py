"""``python -m repro.service`` CLI: the staged submit → worker → fetch
round trip, without a daemon (the staging directory is the queue)."""

import json

import pytest

from repro.service.cli import main


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


def test_submit_rejects_malformed_size(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["submit", "--staging", str(tmp_path), "--app", "matmul",
              "--size", "n256"])


def test_missing_artifact_names_available_ones(tmp_path, capsys):
    staging = tmp_path / "svc"
    job_id = submit(capsys, staging)
    with pytest.raises(SystemExit, match="no 'sanitizer'"):
        main(["artifacts", job_id, "--staging", str(staging),
              "--fetch", "sanitizer"])


@pytest.mark.parametrize("strict", [False, True])
def test_worker_fails_malformed_requests_and_keeps_draining(tmp_path, capsys,
                                                            strict):
    """A staged ``request.json`` the worker cannot decode fails that job
    (reason staged beside it) instead of killing the worker: the valid
    job sorted after the bad ones still runs."""
    staging = tmp_path / "svc"
    bad = {"a-truncated": '{"app": "matm',
           "b-unknown-app": json.dumps({"app": "linpack"}),
           "c-newer-schema": json.dumps({"app": "matmul", "gpu_kind": "x"})}
    for job_id, text in bad.items():
        (staging / job_id).mkdir(parents=True)
        (staging / job_id / "request.json").write_text(text)
        (staging / job_id / "status.json").write_text(json.dumps(
            {"job_id": job_id, "state": "queued", "tenant": "mallory"}))
    submit(capsys, staging, "--job-id", "z-good")

    argv = ["worker", "--staging", str(staging)] + ["--strict"] * strict
    code, out = run(capsys, *argv)
    assert code == (1 if strict else 0)
    assert "z-good: done" in out
    assert json.loads((staging / "z-good" / "result.json").read_text()
                      )["state"] == "done"
    for job_id, error in (("a-truncated", "JSONDecodeError"),
                          ("b-unknown-app", "ValueError"),
                          ("c-newer-schema", "TypeError")):
        status = json.loads((staging / job_id / "status.json").read_text())
        result = json.loads((staging / job_id / "result.json").read_text())
        assert status["state"] == result["state"] == "failed"
        assert status["tenant"] == "mallory"
        assert status["error"] == result["error"]
        assert error in status["error"]
        assert len(status["error"].splitlines()) == 1
        assert f"{job_id}: failed" in out
