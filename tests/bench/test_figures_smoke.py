"""Fast smoke checks of the figure harness (full runs live in benchmarks/)."""

from repro.bench import fresh_cluster, fresh_multi_gpu, run_figure
from repro.bench.harness import CLUSTER_BEST


def test_fresh_machines():
    m = fresh_multi_gpu(2)
    assert len(m.nodes[0].gpus) == 2 and not m.is_cluster
    c = fresh_cluster(4)
    assert c.num_nodes == 4 and c.is_cluster
    single = fresh_cluster(1)
    assert single.num_nodes == 1


def test_cluster_best_matches_paper_best_parameters():
    assert CLUSTER_BEST["cache_policy"] == "wb"
    assert CLUSTER_BEST["scheduler"] == "affinity"
    assert CLUSTER_BEST["overlap"] and CLUSTER_BEST["prefetch"]
    assert not CLUSTER_BEST["functional"]


def test_fig13_structure():
    result = run_figure("fig13", n_bodies=8_000)
    assert result.figure == "Figure 13"
    assert set(result.series) == {"ompss", "mpi+cuda"}
    assert all(len(v) == 4 for v in result.series.values())
    assert all(v > 0 for vals in result.series.values() for v in vals)
    # Render must include every series name.
    text = result.render()
    assert "ompss" in text and "mpi+cuda" in text

