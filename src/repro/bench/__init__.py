"""Benchmark harness: regenerates every table and figure of the evaluation."""

from .figures import FIGURES, run_figure
from .harness import CLUSTER_BEST, FigureResult, fresh_cluster, fresh_multi_gpu
from .loc import APP_VERSION_FILES, count_useful_lines, table1_rows
from .report import render_series, render_table
from .sweep import PointSpec, SweepPointError, run_point, run_points

__all__ = [
    "FIGURES",
    "run_figure",
    "PointSpec",
    "SweepPointError",
    "run_point",
    "run_points",
    "FigureResult",
    "fresh_cluster",
    "fresh_multi_gpu",
    "CLUSTER_BEST",
    "count_useful_lines",
    "table1_rows",
    "APP_VERSION_FILES",
    "render_table",
    "render_series",
]
