"""Command-line figure regeneration: ``python -m repro.bench [targets...]``.

Targets: every key of :data:`repro.bench.figures.FIGURES` (``fig5`` ...
``fig13``, ``fig-irr``), ``table1``, or ``all``.  Each prints the same
series/table the benchmark suite asserts against (EXPERIMENTS.md).

``--parallel N`` fans each figure's points out over ``N`` worker processes
(one fresh process per point; see :mod:`repro.bench.sweep`).  Output is
bit-identical to a serial run — only the wall clock changes.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..runtime.config import SCHEDULERS
from .figures import FIGURES, run_figure
from .loc import table1_rows
from .report import render_table


def print_table1() -> None:
    rows = []
    for row in table1_rows():
        rows.append([
            row["app"], row["serial"],
            f"{row['cuda']} ({row['cuda_pct']:+.0f}%)",
            f"{row['mpi_cuda']} ({row['mpi_cuda_pct']:+.0f}%)",
            f"{row['ompss']} ({row['ompss_pct']:+.0f}%)",
        ])
    print(render_table(
        "Table I: useful lines of code",
        ["app", "serial", "cuda", "mpi+cuda", "ompss"], rows,
        note="increments relative to the serial version",
    ))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures/tables.",
    )
    parser.add_argument(
        "targets", nargs="*", default=["all"],
        help=f"any of: {', '.join(FIGURES)}, table1, all",
    )
    parser.add_argument(
        "--parallel", type=int, default=0, metavar="N",
        help="run each figure's points on N worker processes "
             "(default: serial in-process)",
    )
    parser.add_argument(
        "--scheduler", choices=SCHEDULERS, default=None, metavar="NAME",
        help="override the scheduling policy on every OmpSs point "
             f"(one of: {', '.join(SCHEDULERS)}; see docs/SCHEDULERS.md)",
    )
    args = parser.parse_args(argv)
    if args.parallel < 0:
        parser.error("--parallel must be >= 0")

    targets = args.targets or ["all"]
    if "all" in targets:
        targets = list(FIGURES) + ["table1"]

    for name in targets:
        if name == "table1":
            print_table1()
            print()
            continue
        if name not in FIGURES:
            parser.error(f"unknown target {name!r}")
        start = time.time()
        result = run_figure(name, parallel=args.parallel,
                            scheduler=args.scheduler)
        print(result.render())
        print(f"[regenerated in {time.time() - start:.1f}s wall]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
