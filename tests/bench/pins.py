"""The pinned figure and ablation points, as a table of point values.

``benchmarks/figure_points.json`` holds every declared point's exact
``[metric, makespan]``; ``benchmarks/test_figure_points_pinned.py`` is
the live run that ties it to the code.  :data:`PINS` is that file in the
shape :func:`repro.bench.figures.collect_figure` reads, so the paper's
claims are checked over the pins without simulating.
"""

import json
from pathlib import Path

PIN_FILE = (Path(__file__).resolve().parents[2] / "benchmarks"
            / "figure_points.json")

#: point label -> ``{"metric": ..., "makespan": ...}``
PINS = {label: {"metric": metric, "makespan": makespan}
        for label, (metric, makespan)
        in json.loads(PIN_FILE.read_text()).items()}


def at(result, series: str, x) -> float:
    """A collected figure's ``series`` value at ``x``."""
    return result.series[series][list(result.xs).index(x)]
