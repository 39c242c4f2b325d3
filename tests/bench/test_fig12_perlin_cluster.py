"""Figure 12: Perlin noise on the GPU cluster.

Paper claims: the Flush version's communications "cannot be overlapped
easily with computation", so presend/StoS do not help it; "The MPI+CUDA
version also faces these issues and achieves the same performance as the
OmpSs version."  The NoFlush variant keeps frames on the GPUs and scales.
"""

import functools

from repro.bench.figures import collect_figure

from .pins import PINS, at


def test_fig12_perlin_cluster():
    result = collect_figure("fig12", PINS)
    print()
    print(result.render())

    v = functools.partial(at, result)
    # NoFlush scales with nodes.
    assert v("ompss-noflush", 8) > 4 * v("ompss-noflush", 1)
    # Flush does not scale: the per-step frame movement bounds it.
    assert v("ompss-flush", 8) < 1.5 * v("ompss-flush", 1)
    # MPI+CUDA (whose per-step frames are gathered by the host consumer)
    # degrades to the same regime as OmpSs-Flush at scale.
    assert v("mpi+cuda", 8) < 0.5 * v("ompss-noflush", 8)
    assert 0.3 < v("ompss-flush", 8) / v("mpi+cuda", 8) < 3.0
    # NoFlush dominates Flush everywhere.
    for nodes in (1, 2, 4, 8):
        assert v("ompss-noflush", nodes) > v("ompss-flush", nodes)
