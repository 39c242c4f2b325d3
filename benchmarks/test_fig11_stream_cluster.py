"""Figure 11: STREAM on the GPU cluster.

Paper claim: "The application scales perfectly since there are no data
transfers among the nodes of the cluster, thus it achieves a good
performance using MPI+CUDA and OmpSs."
"""

from repro.bench import run_figure


def test_fig11_stream_cluster(run_once):
    result = run_once(run_figure, "fig11")
    print()
    print(result.render())

    for name in ("ompss", "mpi+cuda"):
        series = result.series[name]
        # Near-linear scaling 1 -> 8 nodes.
        assert series[3] > 5.5 * series[0], f"{name} must scale on STREAM"
        assert series[1] > 1.5 * series[0]
        assert series[2] > 1.7 * series[1]

    # OmpSs stays within a constant factor of the explicit version.
    for i in range(4):
        assert result.series["ompss"][i] > 0.5 * result.series["mpi+cuda"][i]
