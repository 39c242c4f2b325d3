"""The parallel sweep runner: determinism, ordering, crash surfacing.

The contract under test (see :mod:`repro.bench.sweep`): a sweep's results
are bit-identical whether points run serially or fanned out one forked
process each, results come back in spec order, and a point that raises — or
a point process that dies outright — surfaces as :class:`SweepPointError`
naming the point instead of hanging or corrupting the sweep, with no point
process left behind.
"""

import ast
import os
import time
from pathlib import Path

import pytest

from repro.apps import matmul
from repro.bench import figures
from repro.bench.sweep import PointSpec, SweepPointError, run_point, run_points
from repro.runtime.config import RuntimeConfig
from repro.service import JobRequest
from repro.service import backends

REPO = Path(__file__).resolve().parents[2]

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
    # result repeats, whether computed in-process or in a forked one.
    specs = small_points()
    assert run_points(specs, parallel=0) == run_points(specs, parallel=2)


def test_results_come_back_in_spec_order():
    specs = small_points()
    results = run_points(specs, parallel=2)
    assert len(results) == len(specs)
    # Every point differs from the others (policy x GPU count), so an
    # order mix-up pairs some result with another spec's run.
    assert results == [run_point(spec) for spec in specs]


def test_figure_output_identical_serial_vs_parallel():
    serial = figures.run_figure("fig8")
    fanned = figures.run_figure("fig8", parallel=2)
    assert serial.series == fanned.series
    assert serial.xs == fanned.xs
    assert serial.notes == fanned.notes


def test_unknown_app_is_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown app 'nosuchapp'"):
        PointSpec(figure="figT", series="s", x=3, app="nosuchapp")


def failing_point() -> PointSpec:
    """Valid as a request, fails inside the run (100 is not a multiple
    of the 64-wide tile)."""
    return PointSpec(figure="figT", series="s", x=3, app="matmul",
                     size={"n": 100, "bs": 64})


def test_point_exception_surfaces_with_point_identity_serial():
    with pytest.raises(SweepPointError, match="figT/s@3"):
        run_points([failing_point()], parallel=0)


def test_point_exception_surfaces_with_point_identity_parallel():
    with pytest.raises(SweepPointError, match="figT/s@3") as excinfo:
        run_points([failing_point()], parallel=2)
    # The child's traceback (with the causing error) rides along.
    assert "not a multiple of tile size 64" in str(excinfo.value)


def test_worker_crash_surfaces_instead_of_hanging(monkeypatch):
    """A point process that dies without reporting (segfault stand-in:
    os._exit) is detected via pipe EOF and named in the error."""
    monkeypatch.setattr(backends, "execute_request",
                        lambda spec: os._exit(42))
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

    monkeypatch.setattr(backends, "execute_request", fake)
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
    """Every ``FIGURES`` row declares a grid whose points carry the row's
    key and whose series each run over exactly the row's ``xs``."""
    for name, row in figures.FIGURES.items():
        points = figures.figure_points(name)
        assert points, name
        assert all(isinstance(p, PointSpec) for p in points)
        assert all(p.figure == name for p in points)
        # Grouped by series, each series over the row's xs in order (what
        # run_figure relies on to rebuild the series lists); numeric xs
        # ascend.
        if all(isinstance(x, int) for x in row.xs):
            assert list(row.xs) == sorted(row.xs), name
        seen = []
        for p in points:
            if not seen or seen[-1][0] != p.series:
                seen.append((p.series, [p.x]))
            else:
                seen[-1][1].append(p.x)
        labels = [s for s, _xs in seen]
        assert len(labels) == len(set(labels)), f"{name}: series split up"
        for series, xs in seen:
            assert xs == list(row.xs), f"{name}/{series}: x != the row's xs"


def test_a_point_is_a_request_and_the_sweep_a_backend_client():
    """The design budget: a figure point is a service ``JobRequest``, the
    sweep holds no process supervisor of its own, and under ``src/repro``
    only ``Backend`` and ``call_isolated`` construct an ``IsolatedCall``."""
    assert issubclass(PointSpec, JobRequest)
    src = REPO / "src" / "repro"
    tree = ast.parse((src / "bench" / "sweep.py").read_text())
    imported = [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert not [m for m in imported if m.endswith("isolation")], imported
    holders = sorted(str(path.relative_to(src))
                     for path in src.rglob("*.py")
                     if "IsolatedCall(" in path.read_text())
    assert holders == ["service/backends.py", "service/isolation.py"]
    isolation = (src / "service" / "isolation.py").read_text()
    assert isolation.count("IsolatedCall(") == 1
    assert "IsolatedCall(" in isolation[isolation.index("def call_isolated"):]
