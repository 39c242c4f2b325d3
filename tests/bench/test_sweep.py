"""The parallel sweep runner: determinism, ordering, crash surfacing.

The contract under test (see :mod:`repro.bench.sweep`): a sweep's results
are bit-identical whether points run serially or fanned out one forked
process each, results come back in spec order, and a point that raises — or
a point process that dies outright — surfaces as :class:`SweepPointError`
naming the point instead of hanging or corrupting the sweep, with no point
process left behind.
"""

import os
import time

import pytest

from repro.apps import matmul
from repro.bench import figures, sweep
from repro.bench.sweep import PointSpec, SweepPointError, run_points
from repro.runtime.config import RuntimeConfig

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="sweep pool requires POSIX fork")


def small_points() -> "list[PointSpec]":
    """A fast 2-policy x 2-GPU matmul grid (sub-second per point)."""
    size = matmul.MatmulSize(n=256, bs=64)
    return [
        PointSpec(figure="t", series=policy, x=g, app="matmul", count=g,
                  size=size,
                  config=RuntimeConfig(functional=False,
                                       cache_policy=policy,
                                       scheduler="affinity"),
                  want_metrics=(g == 2))
        for policy in ("wb", "nocache") for g in (1, 2)
    ]


def test_serial_matches_parallel_bit_identical():
    # Metric, makespan and every counter are simulation output: the whole
    # result repeats, whichever process computed it.
    specs = small_points()
    assert run_points(specs, parallel=1) == run_points(specs, parallel=2)


def test_results_come_back_in_spec_order():
    specs = small_points()
    results = run_points(specs, parallel=2)
    assert len(results) == len(specs)
    # wb@2 and nocache@2 carry snapshots, the g=1 points carry None —
    # order mix-ups would swap these around.
    assert [r["metrics"] is not None for r in results] == \
        [s.want_metrics for s in specs]


def test_figure_output_identical_serial_vs_parallel():
    serial = figures.fig8()
    fanned = figures.fig8(parallel=2)
    assert serial.series == fanned.series
    assert serial.xs == fanned.xs
    assert serial.notes == fanned.notes


def test_point_exception_surfaces_with_point_identity_serial():
    bad = PointSpec(figure="figT", series="s", x=3, app="nosuchapp")
    with pytest.raises(SweepPointError, match="figT/s@3"):
        run_points([bad], parallel=0)


def test_point_exception_surfaces_with_point_identity_parallel():
    bad = PointSpec(figure="figT", series="s", x=3, app="nosuchapp")
    with pytest.raises(SweepPointError, match="figT/s@3") as excinfo:
        run_points([bad], parallel=2)
    # The child's traceback (with the causing error) rides along.
    assert "ModuleNotFoundError" in str(excinfo.value)


def test_worker_crash_surfaces_instead_of_hanging(monkeypatch):
    """A point process that dies without reporting (segfault stand-in:
    os._exit) is detected via pipe EOF and named in the error."""
    monkeypatch.setattr(sweep, "run_point", lambda spec: os._exit(42))
    spec = PointSpec(figure="figT", series="crash", x=1, app="matmul",
                     count=1, size=matmul.MatmulSize(n=256, bs=64),
                     config=RuntimeConfig(functional=False))
    with pytest.raises(SweepPointError, match="figT/crash@1") as excinfo:
        run_points([spec], parallel=2)
    assert "died" in str(excinfo.value)


def test_first_failure_in_spec_order_is_raised_and_the_rest_killed(
        monkeypatch):
    """The failing first point ends the sweep at once: the slow point
    beside it is killed and reaped, not waited for and not orphaned."""
    def fake(spec):
        if spec.series == "slow":
            time.sleep(60)
        raise RuntimeError(f"boom in {spec.series}")

    monkeypatch.setattr(sweep, "run_point", fake)
    specs = [PointSpec(figure="figT", series=series, x=1, app="matmul")
             for series in ("failing", "slow")]
    t0 = time.monotonic()
    with pytest.raises(SweepPointError, match="figT/failing@1") as excinfo:
        run_points(specs, parallel=2)
    assert time.monotonic() - t0 < 30
    assert "boom in failing" in str(excinfo.value)
    with pytest.raises(ChildProcessError):        # no child left, not even
        os.waitpid(-1, os.WNOHANG)                # an unreaped one


def test_every_figure_declares_points():
    """Each figN has a figN_points() grid whose series cover the figure."""
    for name in (f"fig{i}" for i in range(5, 14)):
        points = getattr(figures, f"{name}_points")()
        assert points, name
        assert all(isinstance(p, PointSpec) for p in points)
        assert all(p.figure == name for p in points)
        # Grouped by series, each series in ascending x order (what
        # _assemble relies on to rebuild the series lists).
        seen = []
        for p in points:
            if not seen or seen[-1][0] != p.series:
                seen.append((p.series, [p.x]))
            else:
                seen[-1][1].append(p.x)
        labels = [s for s, _xs in seen]
        assert len(labels) == len(set(labels)), f"{name}: series split up"
        for series, xs in seen:
            assert xs == sorted(xs), f"{name}/{series}: x out of order"
