"""Figure 13: N-Body on the GPU cluster.

Paper claim: "the scalability obtained by the OmpSs version is better than
the one obtained by the MPI+CUDA, even though the OmpSs performs worse with
1 and 2 nodes", with an all-to-all exchange every iteration that "leaves
almost no space to overlap communication and computation".
"""

import functools

from repro.bench.figures import collect_figure

from .pins import PINS, at


def test_fig13_nbody_cluster():
    result = collect_figure("fig13", PINS)
    print()
    print(result.render())

    v = functools.partial(at, result)
    # OmpSs does not win small configurations ...
    assert v("ompss", 1) < 1.05 * v("mpi+cuda", 1)
    assert v("ompss", 2) < 1.05 * v("mpi+cuda", 2)
    # ... but scales better: clear advantage at 8 nodes.
    assert v("ompss", 8) > 1.08 * v("mpi+cuda", 8)
    # OmpSs relative scalability 1 -> 8 exceeds MPI's.
    ompss_scaling = v("ompss", 8) / v("ompss", 1)
    mpi_scaling = v("mpi+cuda", 8) / v("mpi+cuda", 1)
    assert ompss_scaling > mpi_scaling
