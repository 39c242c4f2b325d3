"""Run-to-run spread of the end-to-end metrics, the way the driver takes it.

    python benchmarks/ledger/spread.py [--runs 10] [--workload W] [--out FILE]

Runs the command of ``BENCHMARK.json`` for ``run_seconds``, ``--runs`` times
on each workload with seeds 1, 2, ..., and prints for each end-to-end metric the
distance between the first and third quartile of its values as a share of
their median, next to the metric's bound.  A benchmark is steady enough when
every spread (``setup_s`` aside) is below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from catalog import BENCHMARK, END_TO_END, ROOT, relative_spread


def one_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        BENCHMARK["command"] + ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(BENCHMARK["run_seconds"]),
                                "--trace", "0"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
    line = json.loads(out.strip().splitlines()[-1])
    if not line["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {line['failed']} of "
                         f"{line['attempted']} ops failed")
    return {k: v["value"] for k, v in line["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="only this workload (repeatable)")
    parser.add_argument("--out", help="also write the table as JSON")
    args = parser.parse_args(argv)

    table = {}
    steady = True
    for spec in BENCHMARK["workloads"]:
        name = spec["name"]
        if args.workload and name not in args.workload:
            continue
        runs = [one_run(name, seed) for seed in range(1, args.runs + 1)]
        table[name] = {}
        for metric, m in END_TO_END.items():
            values = [r[metric] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            share = relative_spread(values)
            table[name][metric] = {"median": median, "q1": q1, "q3": q3,
                                   "spread": share, "bound": m["bound"],
                                   "values": values}
            ok = metric == "setup_s" or share < m["bound"] / 3
            steady = steady and ok
            print(f"{name:16s} {metric:14s} median {median:12.6g} "
                  f"{m['unit']:4s} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {share:6.2%} of bound {m['bound']:.0%}"
                  f"{'' if ok else '   <-- above a third of the bound'}",
                  flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(table, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
