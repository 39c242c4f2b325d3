"""Per-layer Python call counts of four pinned runs: the wall-clock-free
performance gate.

Each point runs once under ``cProfile``; every profiled function is
attributed to a layer by ``benchmarks/ledger/trace.py::layer_of`` (the
ledger's own attribution, loaded by path because the module name ``trace``
shadows the stdlib), and the primitive call count of each ``src/repro``
layer is compared with ``layer_calls.json``, together with the engine's
event count.  A call added per task in any layer fails here and names that
layer, which the host's wall clock cannot resolve.

Counts depend on the interpreter (bytecode, inlined comprehensions), so
``layer_calls.json`` records the one the pins were taken on and the counts
are compared exactly only there.  On any other interpreter (CI also runs
3.10 and 3.12, where the pins were never taken) the test checks only the
event counts, which are the simulation's own and must match everywhere,
and the ceiling of :data:`SIM_CALLS_PER_EVENT` calls into the event core
per event.

Comprehension frames (``<listcomp>``, ``<dictcomp>``, ``<setcomp>``) are
left out: Python 3.12 inlines them, so they are not calls there.

Rule: a change that moves a count on purpose re-pins and lists the moved
layers in CHANGES.md.  Re-pin with::

    PYTHONPATH=src python -m tests.bench.test_layer_calls
"""

import cProfile
import gc
import importlib.util
import json
import pathlib
import sys

import pytest

from repro.bench.figures import figure_points
from repro.bench.harness import CLUSTER_BEST
from repro.bench.sweep import PointSpec, run_point
from repro.runtime import RuntimeConfig

ROOT = pathlib.Path(__file__).resolve().parents[2]
PIN_PATH = pathlib.Path(__file__).with_name("layer_calls.json")
REPIN = "PYTHONPATH=src python -m tests.bench.test_layer_calls"

_spec = importlib.util.spec_from_file_location(
    "ledger_trace_layers", ROOT / "benchmarks" / "ledger" / "trace.py")
_ledger_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_ledger_trace)
layer_of = _ledger_trace.layer_of

#: frames Python 3.12 inlines (PEP 709): not calls on every interpreter.
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})

#: the ledger's Cholesky miniature (``cholesky-mgpu`` at its smoke size).
CHOLESKY_MINI = PointSpec(
    app="cholesky", machine="multi_gpu", count=4,
    size={"n": 8192, "bs": 512}, config=RuntimeConfig(**CLUSTER_BEST),
    figure="ledger", series="cholesky-mini", x=4)

LABELS = ("fig-irr/affinity@jacobi-mgpu", "fig5/wb-affinity@4",
          "fig9/StoS-gpu-ps4@8", CHOLESKY_MINI.label)

#: the event core's budget: calls into ``repro.sim`` per processed event.
SIM_CALLS_PER_EVENT = 4


@pytest.fixture(autouse=True)
def pending_count_matches_recount():
    """Overrides the suite-wide fixture of ``tests/conftest.py`` for this
    module: its wrappers add calls to every scheduler operation, and the
    counts pinned here are those of the program as it runs outside the
    suite.  The runs profiled here are figure points, whose pending counts
    ``benchmarks/test_figure_points_pinned.py`` and the goldens cover."""
    yield


def interpreter() -> str:
    return "%d.%d" % sys.version_info[:2]


def point(label: str) -> PointSpec:
    if label == CHOLESKY_MINI.label:
        return CHOLESKY_MINI
    figure = label.split("/", 1)[0]
    return next(s for s in figure_points(figure) if s.label == label)


def profile(spec: PointSpec) -> dict:
    """``{"events": n, "layers": {layer: calls}}`` of one run.

    A finished simulation leaves suspended generators behind as cyclic
    garbage, and closing one counts as a call in whichever window the
    collector runs: so the window collects before it opens, keeps the
    automatic collector off and collects once more before it closes."""
    if sys.getprofile() is not None:
        pytest.skip("another profiler is active; cProfile would replace it")
    profiler = cProfile.Profile()
    gc.collect()
    gc.disable()
    profiler.enable()
    try:
        result = run_point(spec)
        gc.collect()
    finally:
        profiler.disable()
        gc.enable()
    layers: dict = {}
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str) or code.co_name in _INLINED:
            continue
        layer = layer_of(code.co_filename)
        if layer != "other":
            layers[layer] = (layers.get(layer, 0) + entry.callcount
                             - entry.reccallcount)
    return {"events": result["metrics"]["engine.events_processed"],
            "layers": dict(sorted(layers.items()))}


def load_pins() -> dict:
    return json.loads(PIN_PATH.read_text())


def deltas(got: dict, pinned: dict) -> str:
    """One line per layer whose count moved, with its change per event."""
    events = pinned["events"]
    lines = []
    for layer in sorted(set(got["layers"]) | set(pinned["layers"])):
        new = got["layers"].get(layer, 0)
        old = pinned["layers"].get(layer, 0)
        if new != old:
            lines.append(f"  {layer:22s} {old:>9,d} -> {new:>9,d} "
                         f"({(new - old) / events:+.3f} per event)")
    return "\n".join(lines)


@pytest.mark.parametrize("label", LABELS)
def test_layer_calls_match_the_pins(label):
    pins = load_pins()
    pinned = pins["points"][label]
    got = profile(point(label))
    assert got["events"] == pinned["events"], (
        f"{label}: {got['events']} events, pinned {pinned['events']}: the "
        f"simulated event stream changed")
    per_event = got["layers"]["sim"] / got["events"]
    assert per_event <= SIM_CALLS_PER_EVENT, (
        f"{label}: {per_event:.2f} sim calls per event, over the budget "
        f"of {SIM_CALLS_PER_EVENT}")
    if interpreter() != pins["interpreter"]:
        return      # counts are pinned on one interpreter only (see above)
    assert got["layers"] == pinned["layers"], (
        f"{label}: calls per layer moved (pinned on "
        f"{pins['interpreter']}):\n{deltas(got, pinned)}\n"
        f"re-pin on purpose with: {REPIN}")


def test_pins_cover_the_points():
    assert tuple(load_pins()["points"]) == LABELS


def main() -> int:
    doc = {"interpreter": interpreter(),
           "points": {label: profile(point(label)) for label in LABELS}}
    PIN_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    for label, got in doc["points"].items():
        print(label, got["events"], "events,",
              sum(got["layers"].values()), "calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
