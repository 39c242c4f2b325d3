"""Communication benchmark: the datamove layer on its comm-bound points.

Runs the two communication-bound evaluation points the data-movement
optimisation layer targets (see ``repro.bench.figures.DATAMOVE_POINTS``)
in five configurations each — baseline, one per mechanism, and all three
together — and records the *simulated* makespans plus the mechanism
counters that explain them.  The headline number is the geometric-mean
makespan reduction of ``all`` over ``baseline`` across the points; the
checked-in ``BENCH_comm.json`` pins it and docs/DATAMOVE.md quotes it.

Everything here is virtual time, as in ``faults_bench.py`` next door:
the numbers are machine-independent and exactly reproducible, so the gate
can compare against the checked-in results with zero tolerance noise.

Usage::

    PYTHONPATH=src python benchmarks/perf/comm_bench.py            # full
    PYTHONPATH=src python benchmarks/perf/comm_bench.py --quick    # CI
    PYTHONPATH=src python benchmarks/perf/comm_bench.py --out path.json
    PYTHONPATH=src python benchmarks/perf/comm_bench.py --check    # gate

``--quick`` shrinks the problem sizes so the suite runs in seconds: the
mechanisms still fire (the points stay comm-bound by construction) but the
gains differ from the full run, so quick results are never written over
the checked-in full numbers.  ``--check`` fails if the geomean improvement
fell below the floor; in full mode it also holds every makespan to the
checked-in ``BENCH_comm.json`` with ``==``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from repro.apps import matmul, stream
from repro.bench.figures import DATAMOVE_FLAGS
from repro.bench.sweep import PointSpec, run_points
from repro.runtime.config import RuntimeConfig

SCHEMA = "repro.bench.comm/v1"
RESULT_PATH = os.path.join(os.path.dirname(__file__), "..", "..",
                           "BENCH_comm.json")
#: the gate: all-mechanisms geomean makespan reduction must stay >= this.
GEOMEAN_FLOOR = 0.15

#: mechanism ablation: label -> the RuntimeConfig flags it turns on.
MECHANISMS = {
    "baseline": {},
    "elision": dict(wb_elision=True),
    "prestage": dict(presend_depth=4),
    "cost-evict": dict(cost_aware_eviction=True),
    "all": dict(DATAMOVE_FLAGS),
}

_METRIC_KEYS = {
    "elided": "datamove.writebacks_elided",
    "elided_MB": "datamove.bytes_elided",
    "net_MB": "am.bytes_sent",
}


def _points(quick: bool) -> dict:
    """point name -> (PointSpec template kwargs)."""
    mm_size = (matmul.MatmulSize(n=1536, bs=128) if quick
               else matmul.PAPER_MATMUL)
    st_size = (stream.StreamSize(n=2 ** 24, bsize=2 ** 20, ntimes=4)
               if quick else stream.paper_stream_size(4))
    # The full-size stream arrays (3 x 1.07 GB) overflow 20% of device
    # memory; the quick arrays (3 x 128 MB) need a proportionally smaller
    # cache to stay in the same thrash-bound regime (capacity above the
    # pinned floor of ~6 blocks, below the ~12-block per-GPU footprint).
    st_fraction = 0.025 if quick else 0.2
    return {
        # Master-routed cluster matmul with no presend credit: every tile
        # crosses the master NIC synchronously — the Fig. 9 worst corner.
        "matmul-cluster": dict(
            app="matmul", machine="cluster", count=4, size=mm_size,
            run_kwargs={"init": "seq"},
            cfg=dict(functional=False, cache_policy="wb",
                     scheduler="affinity", overlap=True, prefetch=True,
                     slave_to_slave=False, presend=0)),
        # Multi-GPU STREAM with the cache squeezed to 20% of device
        # memory: steady-state eviction/write-back traffic dominates.
        "stream-mgpu": dict(
            app="stream", machine="multi_gpu", count=4, size=st_size,
            run_kwargs={},
            cfg=dict(functional=False, cache_policy="wb",
                     scheduler="affinity", overlap=True, prefetch=True,
                     gpu_cache_fraction=st_fraction)),
    }


def run_suite(quick: bool, parallel: int = 0) -> dict:
    specs, index = [], []
    for point, base in _points(quick).items():
        for mech, flags in MECHANISMS.items():
            specs.append(PointSpec(
                figure="comm", series=mech, x=point, app=base["app"],
                machine=base["machine"], count=base["count"],
                size=base["size"],
                config=RuntimeConfig(**base["cfg"], **flags),
                run_kwargs=base["run_kwargs"], want_metrics=True))
            index.append((point, mech))
    values = run_points(specs, parallel=parallel)

    results: dict = {"schema": SCHEMA, "mode": "quick" if quick else "full",
                     "points": {}, "geomean_improvement": None}
    for (point, mech), val in zip(index, values):
        entry = results["points"].setdefault(point, {})
        counters = {label: val["metrics"].get(key, 0)
                    for label, key in _METRIC_KEYS.items()}
        counters["elided_MB"] = round(counters["elided_MB"] / 1e6, 1)
        counters["net_MB"] = round(counters["net_MB"] / 1e6, 1)
        entry[mech] = {"makespan": val["makespan"], **counters}

    ratios = []
    for point, entry in results["points"].items():
        base = entry["baseline"]["makespan"]
        best = entry["all"]["makespan"]
        entry["improvement"] = round(1.0 - best / base, 4)
        ratios.append(best / base)
    results["geomean_improvement"] = round(
        1.0 - math.exp(sum(map(math.log, ratios)) / len(ratios)), 4)
    return results


def render(results: dict) -> str:
    lines = [f"comm bench ({results['mode']} mode)"]
    for point, entry in results["points"].items():
        lines.append(f"\n{point}:")
        base = entry["baseline"]["makespan"]
        for mech in MECHANISMS:
            row = entry[mech]
            delta = 1.0 - row["makespan"] / base
            lines.append(
                f"  {mech:10s} makespan={row['makespan']:.5f}s "
                f"({delta:+6.1%})  elided={row['elided']:>4} "
                f"net={row['net_MB']:.1f}MB")
        lines.append(f"  improvement (all vs baseline): "
                     f"{entry['improvement']:+.1%}")
    lines.append(f"\ngeomean improvement: "
                 f"{results['geomean_improvement']:+.1%} "
                 f"(floor {GEOMEAN_FLOOR:.0%})")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="shrunken sizes (CI smoke; seconds)")
    parser.add_argument("--parallel", type=int, default=0, metavar="N",
                        help="fan points out over N worker processes")
    parser.add_argument("--out", default=None,
                        help="write results JSON here (default: "
                             "BENCH_comm.json at the repo root, full mode "
                             "only)")
    parser.add_argument("--check", action="store_true",
                        help="gate: fail if geomean improvement is below "
                             f"{GEOMEAN_FLOOR:.0%} or (full mode) any "
                             "makespan differs from the checked-in "
                             "BENCH_comm.json")
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
        if results["geomean_improvement"] < GEOMEAN_FLOOR:
            print(f"FAIL: geomean improvement "
                  f"{results['geomean_improvement']:.1%} is below the "
                  f"{GEOMEAN_FLOOR:.0%} floor", file=sys.stderr)
            failed = True
        for point, rows in (pinned or {}).items():
            for mech in MECHANISMS:
                want = rows[mech]["makespan"]
                got = results["points"][point][mech]["makespan"]
                if got != want:
                    print(f"FAIL: {point}/{mech} makespan {got!r} differs "
                          f"from the checked-in {want!r}", file=sys.stderr)
                    failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
