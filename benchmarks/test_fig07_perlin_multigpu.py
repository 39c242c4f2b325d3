"""Figure 7: Perlin noise on the multi-GPU node, Flush vs NoFlush.

Paper claims reproduced here: "when we minimize the memory transfers we
achieve a good performance.  For the Flush version, the data movement is
always done, thus we can not achieve as good performance as the NoFlush
version."
"""

from repro.bench import run_figure


def test_fig7_perlin_multigpu(run_once):
    result = run_once(run_figure, "fig7")
    print()
    print(result.render())

    # NoFlush (write-back) beats every Flush variant at every GPU count.
    for g in (1, 2, 4):
        noflush = result.value("noflush-wb", g)
        for policy in ("nocache", "wt", "wb"):
            assert noflush > result.value(f"flush-{policy}", g)

    # NoFlush scales with GPUs; Flush is bottlenecked by the writebacks.
    noflush = result.series["noflush-wb"]
    assert noflush[2] > 3 * noflush[0]
    flush = result.series["flush-wb"]
    assert flush[2] < 2 * noflush[0] * 4 / 3  # nowhere near NoFlush scaling
