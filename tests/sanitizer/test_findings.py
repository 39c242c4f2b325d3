"""Finding-level acceptance: the seeded fixtures produce exactly their
expected findings (with source attribution), the four correct apps come
back clean, and findings flow into the metrics/trace plumbing.
"""

import json

import pytest

from repro.api import Program, task
from repro.apps.matmul import TEST_MATMUL
from repro.apps.matmul import run_ompss as run_matmul
from repro.apps.nbody import TEST_NBODY
from repro.apps.nbody import run_ompss as run_nbody
from repro.apps.perlin import TEST_PERLIN
from repro.apps.perlin import run_ompss as run_perlin
from repro.apps.stream import TEST_STREAM
from repro.apps.stream import run_ompss as run_stream
from repro.hardware import build_gpu_cluster, build_multi_gpu_node
from repro.runtime import RuntimeConfig, Tracer
from repro.sanitizer import install, render_report
from repro.sanitizer.fixtures import EXPECTED, FIXTURES, run_fixture
from repro.sim import Environment


# ----------------------------------------------------------------------
# Misannotated fixtures: exact findings, nothing more, nothing less
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_findings_match_expected(name):
    san = run_fixture(name)
    got = {(f.kind, f.task, f.obj) for f in san.findings()}
    assert got == EXPECTED[name]


def test_fixture_findings_carry_source_attribution():
    san = run_fixture("under-declared-write")
    under = [f for f in san.findings()
             if f.kind == "under-declared-write"][0]
    assert "fixtures.py" in under.where
    assert "leaky_scale" in under.where
    assert under.regions            # offending region(s) are named


def test_source_is_looked_up_once_per_body_and_only_for_findings(
        monkeypatch):
    """``inspect`` re-tokenizes a body's file: a clean run never asks, and
    two findings pointing at one body ask once."""
    import repro.sanitizer.core as core

    asked = []
    source_of = core._source_of
    monkeypatch.setattr(core, "_source_of",
                        lambda fn: asked.append(fn) or source_of(fn))
    san = run_fixture("under-declared-write")
    assert len(san.findings()) == 2
    assert [fn.__name__ for fn in asked] == ["leaky_scale"]
    asked.clear()
    with install() as clean:
        run_stream(build_multi_gpu_node(Environment(), num_gpus=2),
                   TEST_STREAM, RuntimeConfig(functional=True))
    assert clean.findings() == [] and asked == []


def test_unused_clause_reports_positive_cost():
    """The false-dependency finding quantifies what the clause cost: the
    serialization it induced in the executed schedule."""
    san = run_fixture("unused-inout")
    unused = [f for f in san.findings() if f.kind == "unused-clause"][0]
    assert unused.cost is not None and unused.cost > 0
    assert "est. cost" in unused.describe()


def test_render_report_formats():
    san = run_fixture("unused-inout")
    text = render_report(san.findings(), title="fixture")
    assert "fixture" in text and "unused-clause" in text
    assert render_report([], title="ok").endswith("clean (no findings) ==")


# ----------------------------------------------------------------------
# The four correct apps are clean — no false positives
# ----------------------------------------------------------------------
APPS = [
    ("matmul", run_matmul, TEST_MATMUL),
    ("stream", run_stream, TEST_STREAM),
    ("perlin", run_perlin, TEST_PERLIN),
    ("nbody", run_nbody, TEST_NBODY),
]


@pytest.mark.parametrize("name,runner,size", APPS,
                         ids=[a[0] for a in APPS])
def test_correct_apps_have_zero_findings(name, runner, size):
    machine = build_multi_gpu_node(Environment(), num_gpus=2)
    with install() as san:
        runner(machine, size, config=RuntimeConfig())
    assert san.findings() == [], render_report(san.findings(), name)


def test_correct_app_clean_on_cluster():
    machine = build_gpu_cluster(Environment(), num_nodes=2)
    with install() as san:
        run_matmul(machine, TEST_MATMUL, config=RuntimeConfig())
    assert san.findings() == []


# ----------------------------------------------------------------------
# Metrics and trace publication
# ----------------------------------------------------------------------
@task(inputs=("src",), cost=1e-3, label="pub_probe")
def pub_probe(src):
    src[:] = -1.0          # under-declared write


def test_findings_publish_to_metrics_and_tracer():
    tracer = Tracer()
    with install() as san:
        machine = build_multi_gpu_node(Environment(), num_gpus=1)
        prog = Program(machine, RuntimeConfig(), subscribers=(tracer,))
        a = prog.array("a", 16)

        def main():
            pub_probe(a[0:16])
            yield from prog.taskwait()

        prog.run(main())
        findings = san.findings()
        assert findings
        snap = prog.metrics.snapshot()
    assert snap["sanitizer.findings.under-declared-write"] >= 1
    assert snap["sanitizer.findings"] == sum(f.count for f in findings)
    spans = tracer.by_category("sanitizer")
    assert spans and all(s.place == "sanitizer" for s in spans)
    # the annotated trace still exports cleanly
    doc = json.loads(tracer.to_chrome())
    assert any(e.get("cat") == "sanitizer" for e in doc["traceEvents"])
