"""Ablations of the runtime design choices DESIGN.md calls out.

Each ablation isolates one mechanism on the workload that exercises it:

* GPU transfer/compute **overlap** and **prefetch** (Section III.D.2) on a
  transfer-heavy multi-GPU matmul;
* the affinity scheduler's **work stealing** on an imbalanced workload;
* the **presend** window on the cluster matmul (Section III.D.1);
* **slave-to-slave** routing on a workload whose data lives on slaves.
"""

import pytest

from repro.apps import matmul
from repro.bench.harness import fresh_cluster, fresh_multi_gpu
from repro.runtime import RuntimeConfig

SIZE = matmul.MatmulSize(n=6144, bs=1024)


def run_multi_gpu(**cfg):
    config = RuntimeConfig(functional=False, **cfg)
    return matmul.run_ompss(fresh_multi_gpu(4), SIZE, config=config).metric


def run_cluster(nodes=4, init="smp", **cfg):
    defaults = dict(functional=False, scheduler="affinity",
                    cache_policy="wb")
    defaults.update(cfg)
    return matmul.run_ompss(fresh_cluster(nodes), SIZE,
                            config=RuntimeConfig(**defaults),
                            init=init).metric


def test_ablation_overlap_and_prefetch(run_once):
    def sweep():
        return {
            "baseline": run_multi_gpu(),
            "overlap": run_multi_gpu(overlap=True),
            "prefetch": run_multi_gpu(prefetch=True),
            "both": run_multi_gpu(overlap=True, prefetch=True),
        }

    r = run_once(sweep)
    print()
    for name, value in r.items():
        print(f"  {name:10s} {value:8.1f} GFLOP/s")
    # Prefetch alone is serialized behind kernels (paper III.D.2); combined
    # with overlap it must be the best configuration.
    assert r["both"] > r["baseline"]
    assert r["both"] >= r["prefetch"]
    assert r["both"] >= 0.95 * r["overlap"]


def test_ablation_work_stealing(run_once):
    def sweep():
        return {
            "steal": run_multi_gpu(scheduler="affinity", steal=True),
            "no_steal": run_multi_gpu(scheduler="affinity", steal=False),
        }

    r = run_once(sweep)
    print()
    for name, value in r.items():
        print(f"  {name:10s} {value:8.1f} GFLOP/s")
    # Stealing is the affinity scheduler's load-balance escape hatch: it
    # must not hurt, and usually helps when chains finish unevenly.
    assert r["steal"] >= 0.9 * r["no_steal"]


def test_ablation_presend_window(run_once):
    def sweep():
        return {ps: run_cluster(presend=ps, overlap=True, prefetch=True)
                for ps in (0, 1, 2, 4)}

    r = run_once(sweep)
    print()
    for ps, value in r.items():
        print(f"  presend={ps}: {value:8.1f} GFLOP/s")
    # A wider window overlaps the staging of queued tasks with execution.
    assert r[4] > 1.15 * r[0]
    assert r[1] > r[0]


def test_ablation_slave_to_slave(run_once):
    def sweep():
        return {
            "stos": run_cluster(nodes=8, slave_to_slave=True, presend=4,
                                overlap=True, prefetch=True),
            "mtos": run_cluster(nodes=8, slave_to_slave=False, presend=4,
                                overlap=True, prefetch=True),
        }

    r = run_once(sweep)
    print()
    for name, value in r.items():
        print(f"  {name:6s} {value:8.1f} GFLOP/s")
    # Routing slave data through the master serializes on its NIC ports.
    assert r["stos"] > 1.3 * r["mtos"]
