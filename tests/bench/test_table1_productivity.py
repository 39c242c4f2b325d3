"""Table I: productivity — useful lines of code per benchmark version.

The paper counts useful lines for Serial / CUDA / MPI+CUDA / OmpSs+CUDA and
finds: "the CUDA version adds some lines of code, and the MPI+CUDA version
even more.  Instead, the increase in the number of lines is lower when
writing the OmpSs+CUDA version."

Reproduced orderings (on our Python renderings): every parallel version
costs more lines than serial, and MPI+CUDA costs the most.  Known deviation
(EXPERIMENTS.md): OmpSs does not undercut CUDA here, because our *simulated*
CUDA API is one call per operation, while real CUDA's allocation/transfer/
launch boilerplate (what OmpSs eliminates) is many lines per operation.  The
paper's reference numbers are printed alongside for comparison.
"""

from repro.bench import table1_rows
from repro.bench.report import render_table

#: Table I of the paper (useful lines; % increment over serial).
PAPER_TABLE1 = {
    "matmul": {"serial": 643, "cuda": 683, "mpi_cuda": 696, "ompss": 677},
    "stream": {"serial": 378, "cuda": 485, "mpi_cuda": 496, "ompss": 420},
    "perlin": {"serial": 562, "cuda": 761, "mpi_cuda": 788, "ompss": 632},
    "nbody": {"serial": 888, "cuda": 908, "mpi_cuda": 1049, "ompss": 908},
}


def test_table1_productivity():
    rows = table1_rows()
    printable = []
    for row in rows:
        paper = PAPER_TABLE1[row["app"]]
        printable.append([
            row["app"], row["serial"],
            f"{row['cuda']} ({row['cuda_pct']:+.0f}%)",
            f"{row['mpi_cuda']} ({row['mpi_cuda_pct']:+.0f}%)",
            f"{row['ompss']} ({row['ompss_pct']:+.0f}%)",
            f"{paper['cuda']}/{paper['mpi_cuda']}/{paper['ompss']}",
        ])
    print()
    print(render_table(
        "Table I: useful lines of code",
        ["app", "serial", "cuda", "mpi+cuda", "ompss",
         "paper cuda/mpi/ompss"],
        printable,
        note="paper columns are the published absolute counts",
    ))

    for row in rows:
        app = row["app"]
        assert row["serial"] < row["cuda"], f"{app}: cuda adds lines"
        assert row["serial"] < row["ompss"], f"{app}: ompss adds lines"
        assert row["cuda"] < row["mpi_cuda"], \
            f"{app}: MPI+CUDA must cost more lines than CUDA"
        assert row["ompss"] < row["mpi_cuda"], \
            f"{app}: OmpSs must cost fewer lines than MPI+CUDA"

    # The paper's numbers themselves satisfy the full ordering, including
    # OmpSs <= CUDA — kept visible for the comparison.
    for app, paper in PAPER_TABLE1.items():
        assert paper["serial"] < paper["ompss"] <= paper["cuda"] \
            < paper["mpi_cuda"]
