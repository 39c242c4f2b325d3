"""The "run request → result payload" seam.

:func:`execute_request` turns one :class:`~repro.service.job.JobRequest`
into one picklable payload dict, building everything live — machine,
config, tracer, sanitizer — from the declarative description (the
description → call step itself is :func:`repro.bench.harness.run_app`,
shared with the figure sweeps' ``run_point``).  Every backend funnels
through this function, which is what makes eager and pool execution
bit-identical: a simulation depends only on its request, not on what the
executing process ran before — the pool forks each job from the service
process as it is at dispatch, and gives a job its own process so that it
can crash or be killed alone, not to change its numbers.  The service's
result cache rests on the same property, in its full form — the whole
payload repeats (``tests/service/test_determinism.py``).

The payload carries the artifact-bundle raw material::

    {"makespan", "metric", "metric_unit",   # headline numbers
     "metrics",                             # full counter snapshot
     "trace",                               # Chrome trace JSON text | None
     "sanitized", "sanitizer",              # findings as plain dicts
     "stdout"}                              # captured run output
"""

from __future__ import annotations

import contextlib
import io

from ..runtime import trace as trace_mod
from .job import JobRequest

__all__ = ["app_module", "build_size", "execute_request"]


def app_module(app: str):
    """The ``repro.apps.<app>`` package (imported lazily: a process pays
    the import cost only for the apps it actually runs)."""
    import importlib
    return importlib.import_module(f"repro.apps.{app}")


def build_size(app: str, params: "dict | None"):
    """The app's frozen Size dataclass from keyword params.

    Every app package exports exactly one ``*Size`` class and one
    ``TEST_*`` default; ``params=None`` returns the test size.
    """
    mod = app_module(app)
    if params is None:
        name = next(n for n in mod.__all__ if n.startswith("TEST_"))
        return getattr(mod, name)
    name = next(n for n in mod.__all__ if n.endswith("Size"))
    return getattr(mod, name)(**params)


def execute_request(request: JobRequest) -> dict:
    """Execute one job request; returns the picklable result payload.

    Raises whatever the app/runtime raises — surfacing errors is the
    backend's contract (:mod:`repro.service.backends`)."""
    from ..bench.harness import run_app
    size = build_size(request.app, request.size)
    out = io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        tracer = (stack.enter_context(trace_mod.install())
                  if request.collect_trace else None)
        san = None
        if request.sanitize:
            from ..sanitizer import install as install_sanitizer
            san = stack.enter_context(install_sanitizer())
        res = run_app(request.app, request.version, request.machine,
                      request.count, size, request.resolved_config(),
                      request.run_kwargs)

    findings = ([f.to_dict() for f in san.findings()]
                if san is not None else [])
    return {
        "makespan": res.makespan,
        "metric": res.metric,
        "metric_unit": res.metric_unit,
        "metrics": res.metrics or {},
        "trace": tracer.to_chrome() if tracer is not None else None,
        "sanitized": request.sanitize,
        "sanitizer": findings,
        "stdout": out.getvalue(),
    }
