"""The probe seam: binding, the one ambient stack, the JSON-lines recorder."""

import dataclasses
import io
import json
import re
from pathlib import Path

import numpy as np

import repro
from repro import Program, task
from repro.hardware import build_multi_gpu_node
from repro.runtime import RuntimeConfig, probes, trace
from repro.sanitizer import install as install_sanitizer
from repro.sim import Environment


@task(inouts=("y",))
def bump(y):
    y += 1


def _chain(**kwargs):
    """Three tasks on one block, each inout: a 3-task dependence chain."""
    prog = Program(build_multi_gpu_node(Environment(), num_gpus=1),
                   RuntimeConfig(), **kwargs)
    y = prog.array("y", 16, init=np.zeros(16, dtype=np.float32))

    def main():
        for _ in range(3):
            bump(y[0:16])
        yield from prog.taskwait()

    prog.run(main())
    return prog, y


def test_unsubscribed_points_are_empty_tuples():
    prog, _ = _chain()
    bound = prog.rt.probes
    assert all(getattr(bound, name) == ()
               for name in probes.POINTS + probes.INTERCEPTORS)


def test_subscriber_is_attached_once_and_bound_by_method_name():
    class Counter:
        attached = 0
        finished = 0

        def attach(self, runtime):
            self.attached += 1

        def task_finished(self, task, place, start, end):
            assert start <= end
            self.finished += 1

    with probes.install(Counter()) as counter:
        prog, _ = _chain()
    assert counter.attached == 1 and counter.finished == 3
    assert len(prog.rt.probes.task_finished) == 1
    assert prog.rt.probes.dep_arc == ()
    # Outside the block a new runtime binds nothing.
    assert _chain()[0].rt.probes.task_finished == ()


def test_installs_nest_and_unwind():
    with trace.install() as tracer, install_sanitizer() as san:
        prog, y = _chain()
        assert prog.rt.tracer is tracer
    assert san.findings() == [] and tracer.by_category("task")
    assert np.array_equal(y.np, np.full(16, 3, dtype=np.float32))
    assert _chain()[0].rt.tracer is None


def test_recorder_dump_rebuilds_a_chains_arcs():
    stream = io.StringIO()
    with probes.install(probes.JsonLinesRecorder(stream)):
        _chain()
    lines = [json.loads(line) for line in stream.getvalue().splitlines()]
    submitted = [ln["args"][0]["task"] for ln in lines
                 if ln["point"] == "task_submitted"]
    arcs = {(ln["args"][0]["task"], ln["args"][1]["task"])
            for ln in lines if ln["point"] == "dep_arc" and ln["args"][4]}
    first, second, third = submitted
    assert arcs == {(first, second), (second, third)}
    # Every arc attempt is in the dump, deduplicated ones included: each
    # inout link is owed to a read-after-write and a write-after-write.
    kinds = sorted(ln["args"][3] for ln in lines if ln["point"] == "dep_arc")
    assert kinds == ["raw", "raw", "waw", "waw"]
    assert [ln["t"] for ln in lines] == sorted(ln["t"] for ln in lines)


# ----------------------------------------------------------- design budget

SRC = Path(repro.__file__).parent
CORE = ("sim", "hardware", "gasnet", "cuda", "memory", "runtime", "api")


def test_optional_subsystems_are_not_threaded_through_the_core():
    guard = re.compile(r"(tracer|sanitizer|faults|datamove|arc_observer|"
                       r"_m_bytes|_c_ops|_g_depth) is (not )?None")
    hits = [f"{path}: {line.strip()}"
            for layer in CORE for path in sorted((SRC / layer).rglob("*.py"))
            for line in path.read_text().splitlines() if guard.search(line)]
    assert len(hits) < 15, hits
    assert not [p for p in (SRC / "hardware").rglob("*.py")
                if "attach_metrics" in p.read_text()]
    stacks = [p for p in SRC.rglob("*.py")
              if re.search(r"^_(ACTIVE|INSTALLED)\b", p.read_text(), re.M)]
    assert stacks == [SRC / "runtime" / "probes.py"]
    assert len(dataclasses.fields(RuntimeConfig)) == 17
