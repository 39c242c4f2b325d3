"""Figure 10: cluster Matmul — best OmpSs setup vs MPI+CUDA (SUMMA).

Paper claim: "While the MPI obtains better performance with 1 and 2 nodes,
the techniques implemented by our runtime outperform the MPI+CUDA version."

Reproduced: the crossover — MPI wins at 2 nodes, OmpSs wins at 4.  Known
deviations (EXPERIMENTS.md): at 1 node our OmpSs beats the baseline (our
simulated CUDA baseline has no boilerplate inefficiency to lose), and at 8
nodes SUMMA's 2D-blocked placement retains an edge over affinity's emergent
placement.
"""

from repro.bench import run_figure


def test_fig10_matmul_vs_mpi(run_once):
    result = run_once(run_figure, "fig10")
    print()
    print(result.render())

    v = result.value
    # MPI wins at 2 nodes ...
    assert v("mpi+cuda", 2) > v("ompss-best", 2)
    # ... OmpSs catches up and wins at 4 nodes (the paper's crossover).
    assert v("ompss-best", 4) > v("mpi+cuda", 4)
    # Both scale from 1 to 8 nodes.
    assert v("ompss-best", 8) > 1.8 * v("ompss-best", 1)
    assert v("mpi+cuda", 8) > 2.5 * v("mpi+cuda", 1)
