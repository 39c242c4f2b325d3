"""Fault-injection overhead and recovery-latency benchmarks.

Three questions, each answered in *simulated* time (deterministic, so the
numbers are comparable across machines and PRs):

* **zero-overhead + checkpoint cost** — an empty plan must not move the
  makespan by a single bit; arming the engine with inert events prices the
  protect-outputs checkpoint (eager device->host writeback on every
  commit) that fault mode buys recovery with;
* **AM fault tolerance** — how much does cluster matmul's makespan inflate
  as the message-drop probability rises (each retry costs a real watchdog
  timeout plus backoff)?
* **GPU-loss recovery** — how much virtual time does losing one of two
  GPUs mid-run cost (blacklist + invalidation + re-execution), and how
  many tasks had to re-run?

Results land in ``BENCH_faults.json``.  Usage::

    PYTHONPATH=src python benchmarks/perf/faults_bench.py            # full
    PYTHONPATH=src python benchmarks/perf/faults_bench.py --smoke    # CI
    PYTHONPATH=src python benchmarks/perf/faults_bench.py --out path.json
    PYTHONPATH=src python benchmarks/perf/faults_bench.py --check    # gate

Smoke mode shrinks the problem sizes; it validates the suite, not the
numbers.  ``--check`` runs the full suite (under a second) and fails unless
its report equals the checked-in ``BENCH_faults.json`` with ``==``: every
number here is simulated time or a count, exactly reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.apps import matmul
from repro.bench.harness import fresh_cluster, fresh_multi_gpu
from repro.faults import FaultEvent, FaultPlan
from repro.runtime.config import RuntimeConfig

SCHEMA = "repro.bench.faults/v1"
RESULT_PATH = os.path.normpath(os.path.join(
    os.path.dirname(__file__), "..", "..", "BENCH_faults.json"))


def _mgpu_run(size, plan):
    cfg = RuntimeConfig(functional=False, cache_policy="wb",
                        scheduler="affinity", fault_plan=plan)
    return matmul.run_ompss(fresh_multi_gpu(2), size, config=cfg)


def _cluster_run(size, plan):
    cfg = RuntimeConfig(functional=False, cache_policy="wb",
                        scheduler="affinity", presend=2, fault_plan=plan)
    return matmul.run_ompss(fresh_cluster(2), size, config=cfg)


def bench_zero_overhead(size) -> dict:
    """Empty plan = bit-identical makespan; inert plan = engine armed but
    silent, so its inflation is purely the checkpoint-on-commit writeback
    cost."""
    bare = _mgpu_run(size, None)
    empty = _mgpu_run(size, FaultPlan())
    inert = FaultPlan(events=(
        FaultEvent(kind="kernel_abort", nth=10**9),), seed=0)
    armed = _mgpu_run(size, inert)

    assert empty.makespan == bare.makespan, "empty plan moved the makespan"
    return {
        "matrix_n": size.n,
        "makespan": bare.makespan,
        "empty_plan_bit_identical": empty.makespan == bare.makespan,
        "armed_inert_makespan": armed.makespan,
        "armed_inert_inflation": armed.makespan / bare.makespan - 1.0,
    }


def bench_am_drop_sweep(size, probabilities) -> dict:
    """Cluster matmul makespan inflation vs message-drop probability."""
    baseline = _cluster_run(size, None)
    points = []
    for p in probabilities:
        plan = FaultPlan(events=(
            FaultEvent(kind="am_drop", probability=p),
        ), seed=42, am_timeout=2e-3, am_backoff=2e-4)
        res = _cluster_run(size, plan)
        points.append({
            "drop_probability": p,
            "makespan": res.makespan,
            "inflation": res.makespan / baseline.makespan - 1.0,
            "retries": res.metrics.get("am.retries", 0),
            "dropped": res.metrics.get("faults.am_dropped", 0),
        })
    return {
        "matrix_n": size.n,
        "baseline_makespan": baseline.makespan,
        "points": points,
    }


def bench_gpu_loss_recovery(size) -> dict:
    """Cost of losing one of two GPUs at 40% of the fault-free makespan."""
    baseline = _mgpu_run(size, None)
    plan = FaultPlan(events=(
        FaultEvent(kind="gpu_loss", node=0, gpu=1,
                   at=baseline.makespan * 0.4),
    ), seed=7)
    res = _mgpu_run(size, plan)
    single = RuntimeConfig(functional=False, cache_policy="wb",
                           scheduler="affinity")
    lone = matmul.run_ompss(fresh_multi_gpu(1), size, config=single)
    return {
        "matrix_n": size.n,
        "baseline_makespan": baseline.makespan,
        "degraded_makespan": res.makespan,
        # 1.0 = free recovery; the single-GPU run bounds the worst case.
        "inflation": res.makespan / baseline.makespan - 1.0,
        "single_gpu_makespan": lone.makespan,
        "tasks_reexecuted": res.metrics.get("faults.tasks_reexecuted", 0),
        "tasks_rebalanced": res.metrics.get("faults.tasks_rebalanced", 0),
    }


def run_suite(smoke: bool = False) -> dict:
    mgpu_size = matmul.MatmulSize(n=128, bs=32) if smoke \
        else matmul.MatmulSize(n=512, bs=64)
    cluster_size = matmul.MatmulSize(n=96, bs=32) if smoke \
        else matmul.MatmulSize(n=256, bs=64)
    probs = (0.02, 0.1) if smoke else (0.01, 0.02, 0.05, 0.1, 0.2)
    results = {
        "zero_overhead": bench_zero_overhead(mgpu_size),
        "am_drop_sweep": bench_am_drop_sweep(cluster_size, probs),
        "gpu_loss_recovery": bench_gpu_loss_recovery(mgpu_size),
    }
    return {
        "schema": SCHEMA,
        "mode": "smoke" if smoke else "full",
        "results": results,
    }


def differences(want, got, path=""):
    """(path, want, got) for every leaf where two reports differ."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got), key=str):
            yield from differences(want.get(key), got.get(key),
                                   f"{path}.{key}" if path else str(key))
    elif (isinstance(want, list) and isinstance(got, list)
          and len(want) == len(got)):
        for i, (w, g) in enumerate(zip(want, got)):
            yield from differences(w, g, f"{path}[{i}]")
    elif want != got:
        yield path, want, got


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; validates the suite, not the perf")
    parser.add_argument("--out", default="BENCH_faults.json",
                        help="output path (default: ./BENCH_faults.json)")
    parser.add_argument("--check", action="store_true",
                        help="gate: fail unless the full run equals the "
                             "checked-in BENCH_faults.json exactly")
    args = parser.parse_args(argv)
    if args.check and args.smoke:
        parser.error("--check compares the full run; drop --smoke")
    pinned = None
    if args.check:
        # Read before this run can write over it.
        with open(RESULT_PATH) as fh:
            pinned = json.load(fh)
    report = run_suite(smoke=args.smoke)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    res = report["results"]
    zo = res["zero_overhead"]
    print(f"zero_overhead: empty plan bit-identical="
          f"{zo['empty_plan_bit_identical']}, armed inflation="
          f"{zo['armed_inert_inflation'] * 100:.3f}%")
    for pt in res["am_drop_sweep"]["points"]:
        print(f"am_drop p={pt['drop_probability']}: "
              f"{pt['inflation'] * 100:+.1f}% makespan, "
              f"{pt['retries']} retries")
    gl = res["gpu_loss_recovery"]
    print(f"gpu_loss: +{gl['inflation'] * 100:.1f}% makespan "
          f"(single-GPU bound +"
          f"{(gl['single_gpu_makespan'] / gl['baseline_makespan'] - 1) * 100:.1f}%), "
          f"{gl['tasks_reexecuted']} tasks re-executed")
    print(f"wrote {args.out}")
    if pinned is not None:
        diffs = list(differences(pinned, report))
        for where, want, got in diffs:
            print(f"FAIL: {where} is {got!r}, the checked-in "
                  f"BENCH_faults.json has {want!r}", file=sys.stderr)
        if diffs:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
