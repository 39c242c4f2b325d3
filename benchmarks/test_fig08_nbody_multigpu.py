"""Figure 8: N-Body on the multi-GPU node — where no-cache wins.

Paper claims reproduced here: "the N-Body uses a lot of GPU memory which is
also transferred between all the devices.  This causes that the no-cache
policy outperforms the rest of policies, which fill the GPU memory and
trigger the replacement mechanism and delay the writing to main memory ...
With this we still achieve a good scalability with 2 and 4 GPUs."

Substitution note (DESIGN.md): the body count is scaled beyond the paper's
20000 so the all-to-all traffic and the GPU memory pressure are visible in
the simulated cost model.  Write-through ties no-cache in our model (clean
evictions are free); the decisive claim — no-cache beats the default
write-back policy — is asserted.
"""

from repro.bench import run_figure


def test_fig8_nbody_multigpu(run_once):
    result = run_once(run_figure, "fig8")
    print()
    print(result.render())

    # no-cache outperforms write-back at 4 GPUs (delayed writebacks stall
    # the consumers of each block).
    assert result.value("nocache", 4) > 1.15 * result.value("wb", 4)
    assert result.value("nocache", 2) >= 0.99 * result.value("wb", 2)

    # Good scalability 2 -> 4 GPUs with the winning policy.
    assert result.value("nocache", 4) > 1.8 * result.value("nocache", 2)
