"""Tests for the tracing facility (Paraver-style instrumentation)."""

import pytest

from repro.cuda import KernelSpec
from repro.hardware import build_gpu_cluster, build_multi_gpu_node
from repro.runtime import (
    Access,
    Direction,
    Runtime,
    RuntimeConfig,
    Task,
    TraceEvent,
    Tracer,
)
from repro.sim import Environment


def traced_run(machine="gpu2", tasks=8, kernel_time=1e-3, **cfg):
    env = Environment()
    if machine.startswith("cluster"):
        m = build_gpu_cluster(env, num_nodes=int(machine[7:]))
    else:
        m = build_multi_gpu_node(env, num_gpus=int(machine[3:]))
    tracer = Tracer()
    defaults = dict(functional=False, kernel_jitter=0, task_overhead=0)
    defaults.update(cfg)
    rt = Runtime(m, RuntimeConfig(**defaults), subscribers=(tracer,))
    kernel = KernelSpec(name="k", cost=lambda spec: kernel_time)
    task_list = []
    for i in range(tasks):
        obj = rt.register_array(f"x{i}", 1 << 16)
        task_list.append(Task(name=f"t{i}", device="cuda", kernel=kernel,
                              accesses=(Access(obj.whole, Direction.INOUT),)))

    def main():
        for t in task_list:
            rt.submit(t)
        yield from rt.taskwait(noflush=True)

    makespan = rt.run_main(main())
    return rt, tracer, makespan


# ------------------------------------------------------------- TraceEvent

def test_event_validation():
    with pytest.raises(ValueError, match="unknown trace category"):
        TraceEvent("banana", "x", "p", 0, 1)
    with pytest.raises(ValueError, match="ends before"):
        TraceEvent("task", "x", "p", 2, 1)


def test_event_duration():
    assert TraceEvent("task", "x", "p", 1.0, 3.5).duration == 2.5


# ------------------------------------------------------------------ Tracer

def test_task_spans_recorded_per_place():
    rt, tracer, _ = traced_run()
    task_events = tracer.by_category("task")
    assert len(task_events) == 8
    places = {e.place for e in task_events}
    assert places <= {"gpu:0:0", "gpu:0:1"}
    assert len(places) == 2, "both GPUs should have executed tasks"


def test_task_spans_on_one_manager_never_overlap():
    rt, tracer, _ = traced_run(tasks=12)
    for place in ("gpu:0:0", "gpu:0:1"):
        timeline = [e for e in tracer.timeline(place)
                    if e.category == "task"]
        for before, after in zip(timeline, timeline[1:]):
            assert after.start >= before.end - 1e-12, \
                "a manager thread is serial"


def test_transfer_spans_carry_bytes():
    rt, tracer, _ = traced_run()
    transfers = tracer.by_category("transfer")
    assert transfers, "input fetches must be traced"
    assert all(e.nbytes > 0 for e in transfers)


def test_cluster_run_records_messages_and_net_transfers():
    rt, tracer, _ = traced_run(machine="cluster2", scheduler="affinity")
    assert tracer.by_category("message"), "control messages must be traced"
    net_places = [p for p in tracer.places() if p.startswith("net:")]
    assert net_places, "cross-node data must appear on net timelines"


def test_busy_time_merges_overlaps():
    tracer = Tracer()
    tracer.record("task", "a", "p", 0.0, 2.0)
    tracer.record("task", "b", "p", 1.0, 3.0)   # overlaps a
    tracer.record("task", "c", "p", 5.0, 6.0)
    assert tracer.busy_time("p") == pytest.approx(4.0)


def test_utilization():
    rt, tracer, makespan = traced_run(tasks=16, kernel_time=5e-3)
    util = tracer.utilization("gpu:0:0", makespan, categories=("task",))
    assert 0.3 < util <= 1.0


def test_busy_time_empty_place():
    tracer = Tracer()
    assert tracer.busy_time("nowhere") == 0.0
    assert tracer.utilization("nowhere", 10.0) == 0.0


def test_paraver_export_format():
    rt, tracer, _ = traced_run(tasks=4)
    prv = tracer.to_paraver()
    lines = prv.strip().splitlines()
    assert lines[0].startswith("#Paraver")
    assert len(lines) == 1 + len(tracer.events)
    for line in lines[1:]:
        fields = line.split(":")
        assert fields[0] == "1"            # state record
        assert int(fields[6]) >= int(fields[5])  # end >= start


def test_tracing_disabled_by_default():
    env = Environment()
    rt = Runtime(build_multi_gpu_node(env, num_gpus=1))
    assert rt.probes.task_finished == () and rt.probes.fault == ()
