"""Per-job staging directories: the artifact bundle on disk.

Every job owns one directory under the staging root::

    <root>/<job_id>/
        request.json     the JobRequest (diff-based; re-runnable)
        status.json      current lifecycle state (+ error for failures)
        result.json      JobResult summary (terminal states only)
        metrics.json     full counter-registry snapshot
        trace.json       Chrome trace-event JSON (open in Perfetto)
        sanitizer.json   sanitizer findings (``{"enabled": ..., "findings": [...]}``)
        stdout.txt       captured stdout of the run

The layout is the whole "fetch artifacts" API: a remote backend only has
to produce the same files.  ``status.json`` is written atomically
(rename) so a CLI worker and a ``status`` reader never race into half a
document.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

from .job import JobRequest, JobResult, JobState

__all__ = ["ARTIFACTS", "StagingDir"]

#: Artifact file names a finished job may stage (beyond request/status).
ARTIFACTS = ("result.json", "metrics.json", "trace.json", "sanitizer.json",
             "stdout.txt")


class StagingDir:
    """One staging root; handles all per-job reads and writes."""

    def __init__(self, root: "str | os.PathLike"):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def job_dir(self, job_id: str, create: bool = False) -> Path:
        if not job_id or "/" in job_id or job_id.startswith("."):
            raise ValueError(f"bad job id {job_id!r}")
        path = self.root / job_id
        if create:
            path.mkdir(exist_ok=True)
        return path

    def jobs(self) -> "list[str]":
        """Known job ids (directories holding a request.json), sorted."""
        return sorted(p.name for p in self.root.iterdir()
                      if p.is_dir() and (p / "request.json").exists())

    # -- writes -----------------------------------------------------------
    def _write_atomic(self, path: Path, text: str) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, path)

    def write_request(self, job_id: str, request: JobRequest) -> Path:
        path = self.job_dir(job_id, create=True) / "request.json"
        self._write_atomic(path, json.dumps(request.to_dict(), indent=1,
                                            sort_keys=True))
        return path

    def write_status(self, job_id: str, state: JobState,
                     error: Optional[str] = None, **extra) -> Path:
        doc = {"job_id": job_id, "state": state.value, **extra}
        if error is not None:
            doc["error"] = error
        path = self.job_dir(job_id, create=True) / "status.json"
        self._write_atomic(path, json.dumps(doc, indent=1, sort_keys=True))
        return path

    def write_result(self, job_id: str, result: JobResult,
                     payload: Optional[dict] = None) -> "dict[str, str]":
        """Stage the bundle for a terminal job; returns the artifact map.

        ``payload`` is the runner's raw outcome (metrics snapshot, Chrome
        trace text, findings, stdout); a failed job has none and stages
        only ``result.json``.
        """
        jdir = self.job_dir(job_id, create=True)
        artifacts: dict[str, str] = {"result": "result.json"}
        if payload is not None:
            self._write_atomic(jdir / "metrics.json",
                               json.dumps(payload.get("metrics") or {},
                                          indent=1, sort_keys=True))
            artifacts["metrics"] = "metrics.json"
            if payload.get("trace") is not None:
                self._write_atomic(jdir / "trace.json", payload["trace"])
                artifacts["trace"] = "trace.json"
            self._write_atomic(
                jdir / "sanitizer.json",
                json.dumps({"enabled": payload.get("sanitized", False),
                            "findings": payload.get("sanitizer", [])},
                           indent=1, sort_keys=True))
            artifacts["sanitizer"] = "sanitizer.json"
            self._write_atomic(jdir / "stdout.txt",
                               payload.get("stdout", ""))
            artifacts["stdout"] = "stdout.txt"
        result.artifacts = dict(artifacts)
        self._write_atomic(jdir / "result.json",
                           json.dumps(result.to_dict(), indent=1,
                                      sort_keys=True))
        return artifacts

    # -- reads ------------------------------------------------------------
    def read_request(self, job_id: str) -> JobRequest:
        doc = json.loads((self.job_dir(job_id) / "request.json").read_text())
        return JobRequest.from_dict(doc)

    def read_status(self, job_id: str) -> dict:
        return json.loads((self.job_dir(job_id) / "status.json").read_text())

    def artifacts(self, job_id: str) -> "dict[str, Path]":
        """Name → path for every staged artifact of the job."""
        jdir = self.job_dir(job_id)
        out: dict[str, Path] = {}
        for name in ("request.json", "status.json", *ARTIFACTS):
            path = jdir / name
            if path.exists():
                out[name.rsplit(".", 1)[0]] = path
        return out
