"""The metric catalogue: names, units and bounds, read from BENCHMARK.json.

``BENCHMARK.json`` at the repository root is the one place a metric's name,
unit, direction and bound are written down; ``run.py`` emits exactly these
names and ``compare.py`` applies exactly these bounds.
"""

from __future__ import annotations

import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

#: name -> {"unit", "better", "bound"} of the end-to-end metrics.  ``bound``
#: is the driver's regression bound: how much worse than the parent's median
#: of ten runs a later PR may be.  The driver's contract sizes it at three
#: times the run-to-run spread (README, "Steadiness").
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
#: name -> {"unit", "better"} of the per-layer metrics.
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}

#: the agreement bound of ISSUE 11: the tenth within which a host-clock
#: metric should repeat between two result files of the same code.  One that
#: does not is demoted — reported, never gated — not re-bounded.
HOST_BOUND = 0.10
#: host-clock metrics that mean something on one workload only.  The driver
#: wants every end-to-end metric on every workload, so they sit in the
#: per-layer list; compare.py judges them on their workload.
OWN_WORKLOAD = {
    "jobs_per_s": "svc-mixed",
    "job_latency_p50_ms": "svc-mixed",
    "job_latency_p90_ms": "svc-mixed",
    "runs_per_s": "fuzz-functional",
}
#: the host-clock metrics that did repeat within the tenth in every pair of
#: result files of the same code (README, "Two sets of runs of the same
#: commit"): compare.py gates these and only reports the others — every time
#: and rate broke the tenth in some pair, and a gate that fails on identical
#: code is no gate.
GATED_HOST = ("peak_rss_mb",)

#: on svc-mixed the driver polls, so how often it pumps, reads the clock
#: and sleeps depends on timing: these call counts do not repeat there.
POLL_DEPENDENT = ("service.calls", "metrics.calls", "other.calls")


def relative_spread(values) -> float:
    """Distance between the first and the third quartile of ``values`` as a
    share of their median — the driver's measure of steadiness (0 for fewer
    than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def is_exact(name: str, workload: str) -> bool:
    """Whether a per-layer metric repeats exactly for a given seed (and so
    is pinned in expected.json and compared with ``==``): all but the ones
    that read the host clock and svc-mixed's poll-dependent call counts."""
    if name.endswith((".self_s", "_per_s", "_wall_ratio", "_ms")) \
            or name in ("bench.trace_overhead_ratio", "sim.us_per_event"):
        return False
    return not (workload == "svc-mixed" and name in POLL_DEPENDENT)
