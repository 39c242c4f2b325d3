"""Fast smoke checks of the figure harness (full runs live in benchmarks/)."""

import pytest

from repro.bench import fig8, fig13, fresh_cluster, fresh_multi_gpu
from repro.bench.harness import CLUSTER_BEST, FigureResult


def test_fresh_machines():
    m = fresh_multi_gpu(2)
    assert m.total_gpus == 2 and not m.is_cluster
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
    result = fig13(n_bodies=8_000)
    assert result.figure == "Figure 13"
    assert set(result.series) == {"ompss", "mpi+cuda"}
    assert all(len(v) == 4 for v in result.series.values())
    assert all(v > 0 for vals in result.series.values() for v in vals)
    # Render must include every series name.
    text = result.render()
    assert "ompss" in text and "mpi+cuda" in text


def test_fig_datamove_points_structure():
    """The datamove figure's grid: baseline and datamove series over the
    two comm-bound points, every point carrying its counter snapshot (the
    mechanism table is the figure's point).  Running the full points is a
    benchmark job (benchmarks/perf/comm_bench.py), not a unit test."""
    from repro.bench.figures import (DATAMOVE_FLAGS, DATAMOVE_POINTS,
                                     fig_datamove_points)
    points = fig_datamove_points()
    assert {p.series for p in points} == {"baseline", "datamove"}
    assert {p.x for p in points} == set(DATAMOVE_POINTS)
    assert len(points) == 4
    for p in points:
        assert p.want_metrics
        if p.series == "datamove":
            for flag, value in DATAMOVE_FLAGS.items():
                assert getattr(p.config, flag) == value
        else:
            assert not any(getattr(p.config, flag)
                           for flag in DATAMOVE_FLAGS)


def test_fig_datamove_registered_in_cli():
    from repro.bench.__main__ import FIGURES
    from repro.bench.figures import fig_datamove
    assert FIGURES["fig-dm"] is fig_datamove


def test_figure_result_value_lookup_error():
    fr = FigureResult(figure="F", title="t", x_label="x", xs=[1], unit="u")
    fr.add("s", [1.0])
    with pytest.raises(ValueError):
        fr.value("s", 99)
