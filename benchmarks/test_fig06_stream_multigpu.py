"""Figure 6: STREAM on the multi-GPU node.

Paper claims reproduced here: "the key point of the STREAM is the memory
management; no-cache and write-through move data to main memory every time a
task writes ... write-back handles better the situation and obtains a good
performance."

Known deviation (see EXPERIMENTS.md): under our model the breadth-first
scheduler combined with write-back migrates block chains between GPUs, which
costs ~20 kernel-times per bounce for a bandwidth-bound kernel; the paper
reports schedulers as interchangeable for STREAM.  The headline claim is
checked on the default and affinity schedulers.
"""

from repro.bench import run_figure


def test_fig6_stream_multigpu(run_once):
    result = run_once(run_figure, "fig6")
    print()
    print(result.render())

    for sched in ("default", "affinity"):
        for g in (1, 2, 4):
            wb = result.value(f"wb-{sched}", g)
            assert wb > 3 * result.value(f"wt-{sched}", g), \
                "write-back must dominate write-through on STREAM"
            assert wb > 3 * result.value(f"nocache-{sched}", g), \
                "write-back must dominate no-cache on STREAM"

    # For the non-write-back policies the scheduler choice is immaterial
    # (the paper's "every scheduler performs well enough" regime: transfers
    # dominate identically).
    for policy in ("nocache", "wt"):
        for g in (1, 2, 4):
            vals = [result.value(f"{policy}-{s}", g)
                    for s in ("bf", "default", "affinity")]
            assert max(vals) < 1.25 * min(vals)

    # write-back STREAM scales with GPU count.
    wb = result.series["wb-affinity"]
    assert wb[2] > 3 * wb[0]
