"""Tests for the report rendering helpers."""

from repro.bench.report import render_series, render_table
from repro.bench.harness import FigureResult


def test_render_table_basic():
    text = render_table("My Table", ["name", "value"],
                        [["a", 1.0], ["b", 123456.0]])
    assert "== My Table ==" in text
    assert "name" in text and "value" in text
    assert "123456" in text
    lines = text.splitlines()
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1, "all table rows must align"


def test_render_table_with_note():
    text = render_table("T", ["c"], [[1]], note="units are GB/s")
    assert text.endswith("note: units are GB/s")


def test_float_formatting():
    text = render_table("T", ["v"], [[0.12345], [3.14159], [1234.5]])
    assert "0.1234" in text or "0.1235" in text
    assert "3.14" in text
    assert "1234" in text


def test_render_series():
    text = render_series("Fig X", "nodes", [1, 2, 4],
                         {"ompss": [1.0, 2.0, 4.0],
                          "mpi": [1.5, 3.0, 6.0]}, unit="GF")
    assert "Fig X" in text
    assert "ompss" in text and "mpi" in text
    assert "values in GF" in text


def test_figure_result_accessors():
    fr = FigureResult(figure="Figure 0", title="t", x_label="x",
                      xs=[1, 2], unit="u")
    fr.series["s"] = [10.0, 20.0]
    fr.notes.append("a note")
    rendered = fr.render()
    assert "Figure 0" in rendered
    assert "note: a note" in rendered


def test_render_table_empty_rows():
    # Regression: an empty row list must render headers, not crash.
    text = render_table("Empty", ["a", "bb"], [])
    assert "== Empty ==" in text
    assert "a" in text and "bb" in text


def test_render_table_ragged_rows():
    # Regression: rows shorter than the header are padded, longer cells
    # in any row still set the column width.
    text = render_table("Ragged", ["a", "b", "c"],
                        [["x"], ["y", "longvalue"], []])
    assert "longvalue" in text
    lines = text.splitlines()
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1, "all table rows must align"


def test_render_metrics_table():
    from repro.bench.report import render_metrics
    snap = {"cache.gpu0.hits": 4, "cache.gpu0.misses": 2,
            "am.bytes": 100,
            "tasks.dur": {"count": 2, "total": 3.0, "min": 1.0,
                          "max": 2.0, "mean": 1.5}}
    text = render_metrics(snap, title="m", prefix="cache.")
    assert "cache.gpu0.hits" in text and "am.bytes" not in text
    full = render_metrics(snap, title="m")
    assert "tasks.dur.count" in full and "tasks.dur.mean" in full
