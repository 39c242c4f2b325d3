"""Tests for the figure-regeneration CLI."""

import pytest

from repro.bench.__main__ import FIGURES, main


def test_figures_registry_complete():
    assert set(FIGURES) == ({f"fig{i}" for i in range(5, 14)}
                            | {"fig-dm", "fig-irr"})


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
