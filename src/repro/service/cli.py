"""``python -m repro.service`` — the service from the command line.

Five subcommands cover the job lifecycle without a daemon (the staging
directory *is* the queue — i-VRESSE bartender's file-staging shape):

* ``submit``    — stage a request as ``queued``; prints the job id.
* ``worker``    — drain every queued job in the staging dir, and every
  ``running`` one whose worker process is gone, through a local service
  (in-process or one fork per job); ``--watch`` keeps scanning for new
  submissions.
* ``status``    — print a job's ``status.json``.
* ``artifacts`` — list (or ``--fetch`` one of) a job's staged artifacts.
* ``demo``      — put a mixed-tenant batch of nine functional jobs
  (three distinct simulations) on a 2-worker pool, print the fair-share
  dispatch order and the ``service.*`` counters, check that the result
  cache executed each distinct request once (6 hits, 3 misses), and
  cross-check one job eager-vs-pool bit-identical.

Examples::

    python -m repro.service submit --staging /tmp/svc --app matmul \\
        --size n=256,bs=64 --perf --tenant alice
    python -m repro.service worker --staging /tmp/svc --pool 2
    python -m repro.service status  <job-id> --staging /tmp/svc
    python -m repro.service artifacts <job-id> --staging /tmp/svc --fetch metrics
    python -m repro.service demo --workers 2
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import uuid
from typing import Optional

from ..runtime.config import SCHEDULERS, RuntimeConfig
from .api import Service
from .backends import Backend
from .job import (APPS, MACHINES, VERSIONS, JobRequest, JobResult,
                  JobState)
from .staging import StagingDir

__all__ = ["main"]


def _parse_size(text: Optional[str]) -> Optional[dict]:
    """``"n=256,bs=64"`` → ``{"n": 256, "bs": 64}`` (ints)."""
    if not text:
        return None
    out = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        if not _:
            raise SystemExit(f"bad --size entry {part!r} (want key=int)")
        out[key.strip()] = int(value)
    return out


def _request_from_args(args) -> JobRequest:
    if args.request:
        with open(args.request) as fh:
            return JobRequest.from_dict(json.load(fh))
    if not args.app:
        raise SystemExit("submit needs --app (or --request FILE)")
    config = RuntimeConfig(functional=not args.perf,
                           cache_policy=args.cache_policy)
    return JobRequest(
        app=args.app, version=args.version, machine=args.machine,
        count=args.count, size=_parse_size(args.size), config=config,
        scheduler=args.scheduler, sanitize=args.sanitize,
        collect_trace=not args.no_trace, tenant=args.tenant,
        priority=args.priority, cost=args.cost)


def cmd_submit(args) -> int:
    try:
        request = _request_from_args(args)
    except (ValueError, TypeError) as exc:       # JSONDecodeError included
        raise SystemExit(f"bad request: {exc}")
    staging = StagingDir(args.staging)
    job_id = args.job_id or \
        f"{request.tenant}-{request.app}-{uuid.uuid4().hex[:8]}"
    staging.write_request(job_id, request)
    staging.write_status(job_id, JobState.QUEUED, tenant=request.tenant)
    print(job_id)
    return 0


def _fail_staged(staging: StagingDir, job_id: str, what: str,
                 exc: Exception, tenant: str = "") -> None:
    """Fail a job the worker cannot even read, reason staged beside it."""
    reason = f"bad {what}: {type(exc).__name__}: {exc}"
    staging.write_result(job_id, JobResult(
        job_id=job_id, state=JobState.FAILED, app="", version="",
        tenant=tenant, backend="", error=reason))
    staging.write_status(job_id, JobState.FAILED, error=reason,
                         tenant=tenant)
    print(f"{job_id}: failed ({reason})")


def _staged_status(staging: StagingDir, job_id: str) -> dict:
    """A staged ``status.json`` — outside input.

    Unreadable or not a JSON object: *that job* fails, and reads as
    ``failed``.  Missing: a submission in flight (``submit`` writes
    ``request.json`` first), so no state on this pass.
    """
    try:
        status = staging.read_status(job_id)
        if not isinstance(status, dict):
            raise TypeError(f"{type(status).__name__}, not an object")
        return status
    except FileNotFoundError:
        return {}
    except (ValueError, TypeError) as exc:       # JSONDecodeError included
        _fail_staged(staging, job_id, "status.json", exc)
        return {"state": JobState.FAILED.value}


def _worker_gone(status: dict) -> bool:
    """Whether the process a ``running`` status names as its ``worker``
    has exited (staging is one host's directory; signal 0 sends nothing)."""
    try:
        os.kill(status["worker"], 0)
    except ProcessLookupError:
        return True
    except (LookupError, TypeError, OSError, OverflowError):
        pass                        # no pid, or another user's live process
    return False


def _drain_pass(svc: Service, staging: StagingDir) -> int:
    """Adopt every still-queued staged job, and every ``running`` one
    whose worker process is gone (killed mid-job); returns how many.

    A ``request.json`` that does not decode into a valid
    :class:`JobRequest` (truncated JSON, unknown app, a field of a newer
    schema) fails its job like a damaged ``status.json`` does, and the
    pass goes on.
    """
    adopted = 0
    for job_id in staging.jobs():
        if job_id in svc:
            continue
        status = _staged_status(staging, job_id)
        state = status.get("state")
        if state != JobState.QUEUED.value and not (
                state == JobState.RUNNING.value and _worker_gone(status)):
            continue
        try:
            request = staging.read_request(job_id)
        except (ValueError, TypeError) as exc:   # JSONDecodeError included
            _fail_staged(staging, job_id, "request.json", exc,
                         str(status.get("tenant", "")))
            continue
        svc.submit(request, job_id=job_id)
        adopted += 1
    return adopted


def cmd_worker(args) -> int:
    staging = StagingDir(args.staging)
    with Service(backends={"pool" if args.pool else "eager":
                           Backend(args.pool)},
                 staging=staging) as svc:
        while True:
            adopted = _drain_pass(svc, staging)
            svc.run_until_idle()
            if adopted:
                for job_id in svc.dispatch_order()[-adopted:]:
                    status = svc.status(job_id)
                    print(f"{job_id}: {status['state']}")
            if args.watch is None:
                break
            time.sleep(args.watch)
    failed = sum(_staged_status(staging, j).get("state")
                 == JobState.FAILED.value for j in staging.jobs())
    return 1 if failed and args.strict else 0


def cmd_status(args) -> int:
    staging = StagingDir(args.staging)
    print(json.dumps(staging.read_status(args.job_id), indent=1,
                     sort_keys=True))
    return 0


def cmd_artifacts(args) -> int:
    staging = StagingDir(args.staging)
    artifacts = staging.artifacts(args.job_id)
    if args.fetch:
        path = artifacts.get(args.fetch)
        if path is None:
            raise SystemExit(f"job {args.job_id} has no {args.fetch!r} "
                             f"artifact (have: {', '.join(artifacts)})")
        print(path.read_text())
        return 0
    for name, path in artifacts.items():
        print(f"{name}\t{path}")
    return 0


def _demo_batch() -> "list[JobRequest]":
    """Nine functional jobs: three tenants × three apps, sanitized —
    three distinct request contents, each asked for by every tenant."""
    tenants = ("alice", "alice", "alice", "bob", "bob", "bob",
               "carol", "carol", "carol")
    apps = ("matmul", "cholesky", "jacobi") * 3
    return [JobRequest(app=app, size=None, sanitize=True, tenant=tenant,
                       count=2)
            for tenant, app in zip(tenants, apps)]


def cmd_demo(args) -> int:
    """Nine jobs, three simulations, the same fair-share order: exits 1
    unless every job is done, the cache counters are exactly (distinct
    requests) misses and (the rest) hits, and eager equals pool."""
    weights = {"alice": 2.0, "bob": 1.0, "carol": 1.0}
    batch = _demo_batch()
    distinct = len({req.content_key() for req in batch})
    print(f"submitting {len(batch)} functional jobs for "
          f"{len(weights)} tenants (weights {weights}) "
          f"onto a {args.workers}-worker fork-isolated pool…")
    with Service(backends={"pool": Backend(args.workers)}, weights=weights,
                 staging=args.staging) as svc:
        ids = [svc.submit(req) for req in batch]
        svc.run_until_idle(timeout=600)
        print("\ndispatch order (weighted fair, alice 2x):")
        for job_id in svc.dispatch_order():
            print(f"  {job_id}")
        print("\nper-job outcomes:")
        ok = True
        for job_id in ids:
            res = svc.result(job_id)
            ok = ok and res.state is JobState.DONE
            bundle = ", ".join(sorted(svc.fetch_artifacts(job_id)))
            source = f" from {res.cached_from}" if res.cached_from else ""
            print(f"  {job_id}: {res.state.value} on {res.backend}{source} "
                  f"makespan={res.makespan} findings={len(res.findings)} "
                  f"[{bundle}]")
        print("\nservice.* counters:")
        for name, value in sorted(svc.metrics.snapshot().items()):
            if name.startswith("service.") and not isinstance(value, dict):
                print(f"  {name} = {value}")
        hits = svc.metrics.value("service.cache.hits")
        misses = svc.metrics.value("service.cache.misses")
        exact = (misses, hits) == (distinct, len(batch) - distinct)
        print(f"\nresult cache: {hits} hits / {misses} misses for "
              f"{distinct} distinct requests in {len(batch)} jobs: "
              f"{'exact' if exact else 'MISMATCH'}")

        # Determinism cross-check: the first job, re-run eagerly, must
        # reproduce the pool result bit-identically.
        from .runner import execute_request
        eager = execute_request(batch[0])
        pool_res = svc.result(ids[0])
        identical = (eager["makespan"] == pool_res.makespan
                     and eager["metric"] == pool_res.metric)
        print(f"\neager-vs-pool bit-identical: {identical}")
    return 0 if ok and exact and identical else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Simulation-as-a-service: submit jobs, run workers, "
                    "fetch artifact bundles (docs/SERVICE.md).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_submit = sub.add_parser("submit", help="stage a job request")
    p_submit.add_argument("--staging", required=True,
                          help="staging root directory")
    p_submit.add_argument("--request", help="submit a request.json file "
                                            "instead of flags")
    p_submit.add_argument("--app", choices=APPS)
    p_submit.add_argument("--version", choices=VERSIONS, default="ompss")
    p_submit.add_argument("--machine", choices=MACHINES,
                          default="multi_gpu")
    p_submit.add_argument("--count", type=int, default=1,
                          help="GPU count (multi_gpu) or node count "
                               "(cluster)")
    p_submit.add_argument("--size", help='size params, e.g. "n=256,bs=64" '
                                         "(default: the app's test size)")
    p_submit.add_argument("--scheduler", choices=SCHEDULERS)
    p_submit.add_argument("--cache-policy", default="wb",
                          choices=("nocache", "wt", "wb"))
    p_submit.add_argument("--perf", action="store_true",
                          help="performance mode (no real data movement)")
    p_submit.add_argument("--sanitize", action="store_true",
                          help="run under the annotation sanitizer")
    p_submit.add_argument("--no-trace", action="store_true",
                          help="skip Chrome-trace capture")
    p_submit.add_argument("--tenant", default="default")
    p_submit.add_argument("--priority", type=int, default=0)
    p_submit.add_argument("--cost", type=float, default=1.0)
    p_submit.add_argument("--job-id", help="explicit job id")
    p_submit.set_defaults(fn=cmd_submit)

    p_worker = sub.add_parser("worker", help="drain queued staged jobs")
    p_worker.add_argument("--staging", required=True)
    p_worker.add_argument("--pool", type=int, default=0, metavar="N",
                          help="run on an N-worker fork-isolated pool "
                               "(default: eager in-process)")
    p_worker.add_argument("--watch", type=float, default=None,
                          metavar="SECONDS",
                          help="keep scanning for new submissions every "
                               "SECONDS (default: one drain pass)")
    p_worker.add_argument("--strict", action="store_true",
                          help="exit 1 if any staged job is failed")
    p_worker.set_defaults(fn=cmd_worker)

    p_status = sub.add_parser("status", help="print a job's status.json")
    p_status.add_argument("job_id")
    p_status.add_argument("--staging", required=True)
    p_status.set_defaults(fn=cmd_status)

    p_art = sub.add_parser("artifacts",
                           help="list or fetch a job's artifacts")
    p_art.add_argument("job_id")
    p_art.add_argument("--staging", required=True)
    p_art.add_argument("--fetch", metavar="NAME",
                       help="print one artifact (metrics, trace, "
                            "sanitizer, stdout, result, request, status)")
    p_art.set_defaults(fn=cmd_artifacts)

    p_demo = sub.add_parser("demo",
                            help="mixed-tenant batch on a worker pool")
    p_demo.add_argument("--workers", type=int, default=2)
    p_demo.add_argument("--staging", default=None,
                        help="keep the bundles here (default: temp dir)")
    p_demo.set_defaults(fn=cmd_demo)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
