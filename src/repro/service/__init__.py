"""Simulation-as-a-service: async job API over pluggable backends.

One blocking :class:`~repro.api.Program` invocation serves one caller;
this package serves many.  A caller describes a run declaratively as a
:class:`JobRequest` (app + problem size, hardware shape, runtime
configuration, optional fault plan and sanitizer), submits it to a
:class:`Service` and gets a job id back immediately.  The service queues
requests by priority, then submission order (:class:`JobQueue`), routes
each to an execution backend by resource shape (a rule of
:class:`Service`), runs it in-process or in a process forked for that
job alone (:mod:`repro.service.backends`), and stages the outcome as an
artifact bundle — metrics snapshot, Chrome trace, sanitizer findings,
captured stdout — in a per-job directory (:class:`StagingDir`).

Layers (docs/SERVICE.md is the guide):

* :mod:`repro.service.job`       — ``JobRequest`` / ``JobResult`` / ``JobState``;
* :mod:`repro.service.staging`   — the per-job artifact bundle on disk;
* :mod:`repro.service.runner`    — the "run request → result payload" seam;
* :mod:`repro.service.isolation` — the process supervisor: one fork per
  job;
* :mod:`repro.service.queue`     — a priority FIFO;
* :mod:`repro.service.backends`  — ``Backend(workers)``: in-process
  (``workers=0``) or one fork per job; the figure sweep
  (:mod:`repro.bench.sweep`) is a client too;
* :mod:`repro.service.api`       — the :class:`Service` submit/wait/fetch
  façade;
* ``python -m repro.service``    — submit / status / artifacts / worker /
  demo from the command line.
"""

from .api import Service
from .backends import Backend
from .job import JobRequest, JobResult, JobState
from .queue import JobQueue
from .runner import execute_request
from .staging import ARTIFACTS, StagingDir

__all__ = [
    "Service",
    "JobRequest",
    "JobResult",
    "JobState",
    "JobQueue",
    "Backend",
    "StagingDir",
    "ARTIFACTS",
    "execute_request",
]
