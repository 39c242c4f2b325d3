"""Every figure and ablation point's exact numbers, pinned.

This is the one live run of the paper's evaluation.  It runs every point
of every figure in ``repro.bench.figures.FIGURES`` and of
``ablation_points()`` (222 points, about 20 s on two forked workers) and
compares each point's ``[metric, makespan]`` with ``figure_points.json``
exactly.  Simulated time is deterministic, so any difference is a real
change.  The paper's shape claims (``tests/bench/test_fig*.py``,
``test_ablation_runtime_knobs.py``) and EXPERIMENTS.md
(``tests/docs/test_experiments_doc.py``) are checked over those pins, so
this test is what ties them to the code.

Rule: a change that moves a figure number on purpose re-pins the labels
it moves and lists them in CHANGES.md.  Re-pin (all points, or only the
named labels) with::

    PYTHONPATH=src python benchmarks/test_figure_points_pinned.py [LABEL ...]
"""

import json
import os
import sys

from repro.bench.figures import FIGURES, ablation_points, figure_points
from repro.bench.sweep import run_points

PIN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   "figure_points.json")


def all_points() -> list:
    return ([spec for name in FIGURES for spec in figure_points(name)]
            + ablation_points())


def measure(points: list) -> dict:
    """label -> [metric, makespan] of every point, as floats."""
    values = run_points(points, parallel=2)
    return {spec.label: [float(val["metric"]), float(val["makespan"])]
            for spec, val in zip(points, values)}


def test_every_figure_point_matches_its_pin():
    with open(PIN) as fh:
        pinned = json.load(fh)
    measured = measure(all_points())
    diff = [f"{label}: pinned {pinned.get(label)} measured "
            f"{measured.get(label)}"
            for label in sorted(set(pinned) | set(measured))
            if pinned.get(label) != measured.get(label)]
    assert not diff, ("figure points moved (re-pin only on purpose, see "
                      "the module docstring):\n" + "\n".join(diff))


if __name__ == "__main__":
    points = all_points()
    labels = set(sys.argv[1:])
    if labels:
        points = [spec for spec in points if spec.label in labels]
    pinned = {}
    if labels and os.path.exists(PIN):
        with open(PIN) as fh:
            pinned = json.load(fh)
    pinned.update(measure(points))
    with open(PIN, "w") as fh:                # one label per line
        fh.write("{\n" + ",\n".join(
            f" {json.dumps(label)}: {json.dumps(pinned[label])}"
            for label in sorted(pinned)) + "\n}\n")
    print(f"pinned {len(points)} point(s) in {PIN}")
