"""Tests for the figure-regeneration CLI."""

import pytest

from repro.bench import figures
from repro.bench.__main__ import FIGURES, main

from .pins import PINS


def test_figures_registry_complete():
    """The CLI targets and ``FIGURES`` are one list: the paper's
    Figs. 5-13 plus the irregular-apps figure."""
    assert list(figures.FIGURES) == [f"fig{i}" for i in range(5, 14)] + [
        "fig-irr"]
    assert FIGURES is figures.FIGURES


def test_pinned_labels_are_the_declared_points():
    """``figure_points.json`` pins every declared point, figures and
    ablations, and nothing else, so a claim checked over the pins never
    reads a stale or missing one."""
    declared = [spec.label for name in figures.FIGURES
                for spec in figures.figure_points(name)]
    declared += [spec.label for spec in figures.ablation_points()]
    assert len(set(declared)) == len(declared)
    assert set(PINS) == set(declared)


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
