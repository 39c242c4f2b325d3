"""Tests for the figure-regeneration CLI."""

import json
from pathlib import Path

import pytest

from repro.bench import figures
from repro.bench.__main__ import FIGURES, main

REPO = Path(__file__).resolve().parents[2]
PINNED = REPO / "benchmarks" / "figure_points.json"


def test_figures_registry_complete():
    """The CLI targets, the pinned figure set and ``FIGURES`` are one
    list: the paper's Figs. 5-13 plus the irregular-apps figure."""
    assert list(figures.FIGURES) == [f"fig{i}" for i in range(5, 14)] + [
        "fig-irr"]
    assert FIGURES is figures.FIGURES
    pinned = json.loads(PINNED.read_text())
    assert {label.split("/")[0] for label in pinned} == set(figures.FIGURES)


def test_cli_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "matmul" in out and "ompss" in out


def test_cli_single_figure(capsys):
    # fig8 is the fastest full sweep.
    assert main(["fig8"]) == 0
    out = capsys.readouterr().out
    assert "Figure 8" in out
    assert "nocache" in out


def test_cli_unknown_target():
    with pytest.raises(SystemExit):
        main(["fig99"])
