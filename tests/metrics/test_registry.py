"""Unit tests for the CounterRegistry instrument kinds and export."""

import json

import pytest

from repro.metrics import CounterRegistry, Gauge, Histogram


# ---------------------------------------------------------------- Counter

def test_counter_increments():
    m = CounterRegistry()
    m.inc("x")
    m.inc("x", 5)
    assert m.counter("x").value == 6


def test_counter_rejects_decrease():
    with pytest.raises(ValueError, match="cannot decrease"):
        CounterRegistry().inc("x", -1)


# ------------------------------------------------------------------ Gauge

def test_gauge_tracks_high_water():
    g = Gauge("g")
    g.set(5)
    g.set(2)
    g.set(3)
    assert g.value == 3
    assert g.high_water == 5


# -------------------------------------------------------------- Histogram

def test_histogram_summary():
    h = Histogram("h")
    for v in (1.0, 3.0, 2.0):
        h.observe(v)
    s = h.summary()
    assert s["count"] == 3
    assert s["min"] == 1.0
    assert s["max"] == 3.0
    assert s["mean"] == pytest.approx(2.0)
    assert s["total"] == pytest.approx(6.0)


def test_empty_histogram_summary_is_zeros():
    s = Histogram("h").summary()
    assert s == {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                 "mean": 0.0}


# --------------------------------------------------------------- Registry

def test_instruments_created_lazily_and_cached():
    m = CounterRegistry()
    assert m.counter("a") is m.counter("a")
    assert m.gauge("b") is m.gauge("b")
    assert m.histogram("c") is m.histogram("c")
    assert sorted(m.snapshot()) == ["a", "b", "b.high_water", "c"]


def test_name_cannot_change_kind():
    m = CounterRegistry()
    m.counter("x")
    with pytest.raises(ValueError, match="different kind"):
        m.gauge("x")
    with pytest.raises(ValueError, match="different kind"):
        m.histogram("x")


def test_shortcuts_and_value():
    m = CounterRegistry()
    m.inc("hits")
    m.inc("hits", 2)
    m.set_gauge("level", 7)
    m.observe("dur", 0.5)
    assert m.value("hits") == 3
    assert m.value("level") == 7
    assert m.value("absent", default=-1) == -1


def test_snapshot_shape():
    m = CounterRegistry()
    m.inc("c", 4)
    m.set_gauge("g", 9)
    m.observe("h", 1.0)
    snap = m.snapshot()
    assert snap["c"] == 4
    assert snap["g"] == 9
    assert snap["g.high_water"] == 9
    assert snap["h"]["count"] == 1
    # JSON round-trips.
    assert json.loads(json.dumps(snap))["c"] == 4


def test_info_instrument_last_write_wins():
    reg = CounterRegistry()
    assert "scheduler.policy" not in reg.snapshot()
    reg.set_info("scheduler.policy", "affinity")
    reg.set_info("scheduler.policy", "adaptive:cp")
    assert reg.snapshot()["scheduler.policy"] == "adaptive:cp"


def test_info_appears_in_snapshot_and_respects_kinds():
    reg = CounterRegistry()
    reg.set_info("scheduler.policy", "affinity")
    reg.inc("tasks.total")
    snap = reg.snapshot()
    assert snap["scheduler.policy"] == "affinity"
    assert snap["tasks.total"] == 1
    # An info name cannot be reused as another instrument kind.
    with pytest.raises(ValueError):
        reg.counter("scheduler.policy")
    with pytest.raises(ValueError):
        reg.set_info("tasks.total", "oops")
