"""Figure 5: Matmul on the multi-GPU node, cache policy x scheduler sweep.

Paper claims reproduced here:
* no-cache is slowest ("data is moved back and forth each time");
* write-through improves on it but "writes still create a significant
  number of transfers";
* write-back is best;
* with write-back at 4 GPUs, the dependency-aware and locality-aware
  schedulers give large benefits over breadth-first — "up to the point of
  almost doubling the performance".
"""

from repro.bench.figures import collect_figure

from .pins import PINS, at


def test_fig5_matmul_multigpu():
    result = collect_figure("fig5", PINS)
    print()
    print(result.render())

    for sched in ("default", "affinity"):
        for g in (1, 2, 4):
            assert at(result, f"wb-{sched}", g) > at(result, 
                f"wt-{sched}", g), "write-back must beat write-through"
            assert at(result, f"wt-{sched}", g) > at(result, 
                f"nocache-{sched}", g), "write-through must beat no-cache"

    # Scheduler effect at 4 GPUs with write-back: bf far behind.
    bf = at(result, "wb-bf", 4)
    assert at(result, "wb-default", 4) > 1.4 * bf
    assert at(result, "wb-affinity", 4) > 1.3 * bf

    # The best configuration scales with GPUs.
    best = result.series["wb-default"]
    assert best[1] > 1.6 * best[0]
    assert best[2] > 2.8 * best[0]
