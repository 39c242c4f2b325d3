"""The probe seam: binding, the one ambient stack, the JSON-lines recorder."""

import inspect
import io
import json
import re
from pathlib import Path

import numpy as np

import repro
from repro import Program, task
from repro.cuda import KernelSpec
from repro.faults import FaultEvent, FaultPlan
from repro.hardware import build_multi_gpu_node
from repro.runtime import (Access, Direction, Runtime, RuntimeConfig, Task,
                           Tracer, probes, trace)
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
        assert tracer.task_finished in prog.rt.probes.task_finished
    assert san.findings() == [] and tracer.by_category("task")
    assert np.array_equal(y.np, np.full(16, 3, dtype=np.float32))
    assert _chain()[0].rt.probes.task_finished == ()


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


def test_fault_notes_reach_subscribers_through_the_fault_point():
    plan = FaultPlan(events=(FaultEvent(kind="kernel_abort", nth=2),))
    kernel = KernelSpec(name="k", cost=lambda spec: 1e-3)
    tracer, stream = Tracer(), io.StringIO()
    with probes.install(probes.JsonLinesRecorder(stream)):
        rt = Runtime(build_multi_gpu_node(Environment(), num_gpus=1),
                     RuntimeConfig(functional=False, fault_plan=plan),
                     subscribers=(tracer,))
    objs = [rt.register_array(f"x{i}", 64) for i in range(4)]

    def main():
        for i, obj in enumerate(objs):
            rt.submit(Task(name=f"t{i}", device="cuda", kernel=kernel,
                           accesses=(Access(obj.whole, Direction.INOUT),)))
        yield from rt.taskwait()

    rt.run_main(main())
    timeline = rt.faults.timeline
    assert timeline
    assert [(e.name, e.start, e.end) for e in tracer.by_category("fault")] \
        == [(f"{kind}:{detail}" if detail else kind, at, at)
            for at, kind, detail in timeline]
    lines = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert [ln["args"] for ln in lines if ln["point"] == "fault"] \
        == [[kind, detail, at] for at, kind, detail in timeline]


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


def test_tools_are_subscribers_only():
    for cls in (Runtime, Program):
        params = inspect.signature(cls).parameters
        assert "subscribers" in params
        assert not {"tracer", "sanitizer"} & set(params)
    reads = [f"{path}: {line.strip()}" for path in sorted(SRC.rglob("*.py"))
             for line in path.read_text().splitlines()
             if re.search(r"\.tracer\b", line)]
    assert reads == []
    assert not hasattr(Tracer, "attach")
    assert {"fault", "finding"} <= set(probes.POINTS)
