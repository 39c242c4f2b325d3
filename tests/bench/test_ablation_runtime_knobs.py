"""Ablations of the runtime design choices DESIGN.md calls out.

Each ablation isolates one mechanism on the workload that exercises it
(the points are ``repro.bench.figures.ablation_points()``, checked here
over their pins):

* GPU transfer/compute **overlap** and **prefetch** (Section III.D.2) on a
  transfer-heavy multi-GPU matmul;
* the affinity scheduler's **work stealing** on an imbalanced workload;
* the **presend** window on the cluster matmul (Section III.D.1);
* **slave-to-slave** routing on a workload whose data lives on slaves.
"""

from .pins import PINS


def pinned(series, x):
    """The pinned throughput of point ``ablation/<series>@<x>``
    (declared by ``repro.bench.figures.ablation_points``)."""
    return PINS[f"ablation/{series}@{x}"]["metric"]


def test_ablation_overlap_and_prefetch():
    r = {name: pinned(name, 4)
         for name in ("baseline", "overlap", "prefetch", "both")}
    print()
    for name, value in r.items():
        print(f"  {name:10s} {value:8.1f} GFLOP/s")
    # Prefetch alone is serialized behind kernels (paper III.D.2); combined
    # with overlap it must be the best configuration.
    assert r["both"] > r["baseline"]
    assert r["both"] >= r["prefetch"]
    assert r["both"] >= 0.95 * r["overlap"]


def test_ablation_work_stealing():
    r = {name: pinned(name, 4) for name in ("steal", "no_steal")}
    print()
    for name, value in r.items():
        print(f"  {name:10s} {value:8.1f} GFLOP/s")
    # Stealing is the affinity scheduler's load-balance escape hatch: it
    # must not hurt, and usually helps when chains finish unevenly.
    assert r["steal"] >= 0.9 * r["no_steal"]


def test_ablation_presend_window():
    r = {ps: pinned("presend", ps) for ps in (0, 1, 2, 4)}
    print()
    for ps, value in r.items():
        print(f"  presend={ps}: {value:8.1f} GFLOP/s")
    # A wider window overlaps the staging of queued tasks with execution.
    assert r[4] > 1.15 * r[0]
    assert r[1] > r[0]


def test_ablation_slave_to_slave():
    r = {name: pinned(name, 8) for name in ("stos", "mtos")}
    print()
    for name, value in r.items():
        print(f"  {name:6s} {value:8.1f} GFLOP/s")
    # Routing slave data through the master serializes on its NIC ports.
    assert r["stos"] > 1.3 * r["mtos"]
