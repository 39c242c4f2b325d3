"""Scheduling benchmark: the paper tier vs the adaptive tier, per point.

Runs every scheduling policy (``bf``/``default``/``affinity`` — the paper
tier — and ``ws``/``cp``/``adaptive`` — the adaptive tier) over the
scheduling-sensitive evaluation points: the tiled-Cholesky task graph at
two problem sizes on the multi-GPU node, the same graph on the GPU
cluster, and a regular figure workload (matmul) as the locality-dominated
control.  The Cholesky multi-GPU points run under write-through — the
paper's conservative cache mode.

Two headline numbers are recorded and gated:

* ``cholesky_geomean_improvement`` — geometric-mean makespan reduction of
  the best adaptive-tier policy over the best paper-tier policy across
  the Cholesky problem sizes (floor: ``GEOMEAN_FLOOR``);
* ``adaptive_max_regret`` — the worst slowdown of ``adaptive`` against
  the best *static* policy on any measured point (ceiling:
  ``REGRET_CEIL``) — the meta-scheduler must never lose much by adapting.

What the floor measures is **write-through recovery**, not scheduling.
The ``adaptive`` rows — and only they, so every other row stays
comparable with ``==`` — run with ``adaptive_datamove``: the data-movement
layer's monitor (``repro.runtime.datamove``) switches a write-through run's
commit write mode to write-back once write-backs compete with saturated
links (``wback`` counts that switch).  The monitor works under any policy:
``affinity`` with the same flag gives the ``adaptive`` makespans bit for
bit on the gated points, so policy switching adds 0 there
(docs/SCHEDULERS.md, "Choosing a policy").

Everything is simulated time: machine-independent, exactly reproducible,
zero-tolerance comparable against the checked-in ``BENCH_sched.json``.

Usage::

    PYTHONPATH=src python benchmarks/perf/sched_bench.py            # full
    PYTHONPATH=src python benchmarks/perf/sched_bench.py --quick    # CI
    PYTHONPATH=src python benchmarks/perf/sched_bench.py --out path.json
    PYTHONPATH=src python benchmarks/perf/sched_bench.py --check    # gates

``--quick`` shrinks the problem sizes so the suite runs in seconds; the
regime (write-through pressure, fan-in DAG) is preserved by construction,
so the gates are checked in both modes, but quick results are never
written over the checked-in full numbers.  In full mode ``--check`` also
holds every makespan to the checked-in ``BENCH_sched.json`` with ``==``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from repro.apps import cholesky, matmul
from repro.bench.harness import CLUSTER_BEST
from repro.bench.sweep import PointSpec, run_points
from repro.runtime.config import SCHEDULERS, RuntimeConfig

SCHEMA = "repro.bench.sched/v1"
RESULT_PATH = os.path.join(os.path.dirname(__file__), "..", "..",
                           "BENCH_sched.json")

#: paper tier, then adaptive tier — order matters for the report.
PAPER_TIER = SCHEDULERS[:3]     # bf, default, affinity
NEW_TIER = SCHEDULERS[3:]       # ws, cp, adaptive

#: the gate: best adaptive-tier policy must beat the best paper-tier
#: policy by this geomean makespan fraction across the Cholesky sizes.
GEOMEAN_FLOOR = 0.15

#: the gate: ``adaptive`` may trail the best static policy by at most
#: this fraction on any point.
REGRET_CEIL = 0.03

#: counters/info pulled into the per-run rows of the report.
_METRIC_KEYS = {
    "steals": "scheduler.steals",
    "switches": "scheduler.adaptive.switches",
    "wback": "datamove.write_mode_switches",
}
_INFO_KEYS = {
    "policy": "scheduler.policy",
    "write_mode": "datamove.write_mode",
}

#: write-through Cholesky configuration (see the module docstring).
_CHOLESKY_WT = dict(functional=False, overlap=True, prefetch=True,
                    cache_policy="wt")


def _points(quick: bool) -> dict:
    """point name -> PointSpec template kwargs.  The ``gated`` points are
    the Cholesky problem sizes entering the geomean."""
    if quick:
        sizes = (cholesky.CholeskySize(n=6144, bs=512),
                 cholesky.CholeskySize(n=8192, bs=512))
        cl_size = cholesky.CholeskySize(n=4096, bs=512)
        mm_size = matmul.MatmulSize(n=4096, bs=512)
        cl_nodes = 2
    else:
        sizes = (cholesky.PAPER_CHOLESKY,
                 cholesky.CholeskySize(n=24576, bs=1024))
        cl_size = cholesky.PAPER_CHOLESKY
        mm_size = matmul.PAPER_MATMUL
        # 8 nodes: the width-limited regime where placement dominates (at
        # 4 nodes the graph saturates the machine and FIFO spreading is
        # competitive with locality placement).
        cl_nodes = 8
    cluster_cfg = {k: v for k, v in CLUSTER_BEST.items()
                   if k != "scheduler"}
    points = {}
    for size in sizes:
        points[f"cholesky-{size.n // 1024}k"] = dict(
            app="cholesky", machine="multi_gpu", count=4, size=size,
            cfg=dict(_CHOLESKY_WT), gated=True)
    points["cholesky-cluster"] = dict(
        app="cholesky", machine="cluster", count=cl_nodes, size=cl_size,
        cfg=dict(cluster_cfg, presend=2), gated=False)
    points["matmul-mgpu"] = dict(
        app="matmul", machine="multi_gpu", count=4, size=mm_size,
        cfg=dict(functional=False, overlap=True, prefetch=True),
        gated=False)
    return points


def run_suite(quick: bool, parallel: int = 0) -> dict:
    specs, index = [], []
    points = _points(quick)
    for point, base in points.items():
        for policy in PAPER_TIER + NEW_TIER:
            cfg = dict(base["cfg"], scheduler=policy)
            if policy == "adaptive":
                cfg["adaptive_datamove"] = True
            specs.append(PointSpec(
                figure="sched", series=policy, x=point, app=base["app"],
                machine=base["machine"], count=base["count"],
                size=base["size"], config=RuntimeConfig(**cfg),
                want_metrics=True))
            index.append((point, policy))
    values = run_points(specs, parallel=parallel)

    results: dict = {"schema": SCHEMA, "mode": "quick" if quick else "full",
                     "points": {}, "cholesky_geomean_improvement": None,
                     "adaptive_max_regret": None}
    for (point, policy), val in zip(index, values):
        entry = results["points"].setdefault(point, {})
        snap = val["metrics"]
        row = {"makespan": val["makespan"]}
        row.update({label: snap.get(key, 0)
                    for label, key in _METRIC_KEYS.items()})
        row.update({label: snap.get(key, "-")
                    for label, key in _INFO_KEYS.items()})
        entry[policy] = row

    ratios, regrets = [], []
    for point, entry in results["points"].items():
        paper = min(entry[p]["makespan"] for p in PAPER_TIER)
        new = min(entry[p]["makespan"] for p in NEW_TIER)
        static = min(entry[p]["makespan"]
                     for p in PAPER_TIER + ("ws", "cp"))
        entry["improvement"] = round(1.0 - new / paper, 4)
        regret = entry["adaptive"]["makespan"] / static - 1.0
        entry["adaptive_regret"] = round(regret, 4)
        regrets.append(regret)
        if points[point]["gated"]:
            ratios.append(new / paper)
    results["cholesky_geomean_improvement"] = round(
        1.0 - math.exp(sum(map(math.log, ratios)) / len(ratios)), 4)
    results["adaptive_max_regret"] = round(max(regrets), 4)
    return results


def render(results: dict) -> str:
    lines = [f"sched bench ({results['mode']} mode)"]
    for point, entry in results["points"].items():
        lines.append(f"\n{point}:")
        paper = min(entry[p]["makespan"] for p in PAPER_TIER)
        for policy in PAPER_TIER + NEW_TIER:
            row = entry[policy]
            delta = 1.0 - row["makespan"] / paper
            lines.append(
                f"  {policy:9s} makespan={row['makespan']:.5f}s "
                f"({delta:+6.1%})  steals={row['steals']:>4} "
                f"switches={row['switches']:>2} "
                f"policy={row['policy']} write_mode={row['write_mode']}")
        lines.append(
            f"  best new vs best paper: {entry['improvement']:+.1%}; "
            f"adaptive regret vs best static: "
            f"{entry['adaptive_regret']:+.1%}")
    lines.append(
        f"\ncholesky geomean improvement: "
        f"{results['cholesky_geomean_improvement']:+.1%} "
        f"(floor {GEOMEAN_FLOOR:.0%})")
    lines.append(
        f"adaptive max regret: {results['adaptive_max_regret']:+.1%} "
        f"(ceiling {REGRET_CEIL:.0%})")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="shrunken sizes (CI smoke; seconds)")
    parser.add_argument("--parallel", type=int, default=0, metavar="N",
                        help="fan points out over N worker processes")
    parser.add_argument("--out", default=None,
                        help="write results JSON here (default: "
                             "BENCH_sched.json at the repo root, full "
                             "mode only)")
    parser.add_argument("--check", action="store_true",
                        help="gate: fail if the geomean improvement is "
                             f"below {GEOMEAN_FLOOR:.0%}, the adaptive "
                             f"regret exceeds {REGRET_CEIL:.0%}, or (full "
                             "mode) any makespan differs from the "
                             "checked-in BENCH_sched.json")
    args = parser.parse_args(argv)

    pinned = None
    if args.check and not args.quick:
        # Read before this run can write over it.
        with open(os.path.normpath(RESULT_PATH)) as fh:
            pinned = json.load(fh)["points"]

    results = run_suite(args.quick, parallel=args.parallel)
    print(render(results))

    out = args.out
    if out is None and not args.quick:
        out = os.path.normpath(RESULT_PATH)
    if out:
        with open(out, "w") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")
        print(f"\nresults written: {out}")

    if args.check:
        failed = False
        if results["cholesky_geomean_improvement"] < GEOMEAN_FLOOR:
            print(f"FAIL: cholesky geomean improvement "
                  f"{results['cholesky_geomean_improvement']:.1%} is "
                  f"below the {GEOMEAN_FLOOR:.0%} floor", file=sys.stderr)
            failed = True
        if results["adaptive_max_regret"] > REGRET_CEIL:
            print(f"FAIL: adaptive regret "
                  f"{results['adaptive_max_regret']:.1%} exceeds the "
                  f"{REGRET_CEIL:.0%} ceiling", file=sys.stderr)
            failed = True
        for point, rows in (pinned or {}).items():
            for policy in PAPER_TIER + NEW_TIER:
                want = rows[policy]["makespan"]
                got = results["points"][point][policy]["makespan"]
                if got != want:
                    print(f"FAIL: {point}/{policy} makespan {got!r} differs "
                          f"from the checked-in {want!r}", file=sys.stderr)
                    failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
