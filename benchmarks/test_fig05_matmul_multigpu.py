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

from repro.bench import run_figure


def test_fig5_matmul_multigpu(run_once):
    result = run_once(run_figure, "fig5")
    print()
    print(result.render())

    for sched in ("default", "affinity"):
        for g in (1, 2, 4):
            assert result.value(f"wb-{sched}", g) > result.value(
                f"wt-{sched}", g), "write-back must beat write-through"
            assert result.value(f"wt-{sched}", g) > result.value(
                f"nocache-{sched}", g), "write-through must beat no-cache"

    # Scheduler effect at 4 GPUs with write-back: bf far behind.
    bf = result.value("wb-bf", 4)
    assert result.value("wb-default", 4) > 1.4 * bf
    assert result.value("wb-affinity", 4) > 1.3 * bf

    # The best configuration scales with GPUs.
    best = result.series["wb-default"]
    assert best[1] > 1.6 * best[0]
    assert best[2] > 2.8 * best[0]
