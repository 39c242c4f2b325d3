"""Figure 9: Matmul on the GPU cluster — transfers, init modes, presend.

Paper claims reproduced here:
* "Slave-to-Slave transfers are a must to achieve a proper scalability";
* "Initializing the data in parallel also turns out to be a critical
  factor";
* "SMP initialization provides in general better results than GPU
  initialization" (checked at the largest node count, where the remote
  traffic the paper attributes it to dominates);
* "Presend also helps to improve scalability ... Presend must be used along
  with Slave-to-Slave transfers."
"""

from repro.bench import run_figure


def test_fig9_matmul_cluster(run_once):
    result = run_once(run_figure, "fig9", presends=(0, 4))
    print()
    print(result.render())

    v = result.value

    # Slave-to-slave transfers are a must at scale (with parallel init).
    assert v("StoS-smp-ps4", 8) > 1.5 * v("MtoS-smp-ps4", 8)
    assert v("StoS-smp-ps0", 8) > 1.5 * v("MtoS-smp-ps0", 8)

    # Parallel initialization beats sequential at scale.
    assert v("StoS-smp-ps4", 8) > 1.5 * v("StoS-seq-ps4", 8)
    assert v("StoS-smp-ps4", 4) > 1.2 * v("StoS-seq-ps4", 4)

    # SMP init beats GPU init at the largest node count (remote fetches of
    # GPU-resident data pay the extra device-to-host hop).
    assert v("StoS-smp-ps4", 8) > v("StoS-gpu-ps4", 8)

    # Presend improves scalability (with StoS).
    assert v("StoS-smp-ps4", 4) > 1.2 * v("StoS-smp-ps0", 4)
    assert v("StoS-smp-ps4", 8) > 1.1 * v("StoS-smp-ps0", 8)
