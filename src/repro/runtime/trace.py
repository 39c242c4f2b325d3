"""Execution tracing (the Paraver/Extrae role in the BSC ecosystem).

Nanos++ installations are habitually analyzed with Paraver timelines; this
module records the same kinds of spans from the simulated execution — task
bodies per execution place, kernels, data transfers per link, cluster
control messages, and ``stage`` spans for runtime phases — and can export
both a minimal Paraver ``.prv`` trace and a Chrome trace-event JSON
(loadable in ``chrome://tracing`` / Perfetto).  Per-place utilization and
idle-gap queries let the tests assert scheduling properties (e.g. that a
GPU never runs two kernels at once, or that prefetch removed a staging
gap).

The example below is complete and runs as-is (the doc-snippet smoke test
executes it)::

    from repro.runtime import Tracer

    tracer = Tracer()                      # a probe subscriber, see below
    tracer.record("task", "k0", "gpu:0:0", start=0.0, end=1.0)
    tracer.record("stage", "flush", "gpu:0:0", start=2.0, end=3.0)
    assert tracer.utilization("gpu:0:0", makespan=4.0) == 0.5
    assert tracer.gaps("gpu:0:0") == [(1.0, 2.0)]      # idle between spans
    prv = tracer.to_paraver()              # Paraver .prv text
    json_text = tracer.to_chrome()         # chrome://tracing JSON

In a real run the spans come from probe points: a Tracer is a plain
subscriber (:mod:`repro.runtime.probes`) whose point methods each append
one span — the fault engine's ``fault`` and the sanitizer's ``finding``
included, as zero-width spans on the ``faults`` / ``sanitizer`` places.
Build the runtime as ``Runtime(machine, config, subscribers=(tracer,))``
(or inside :func:`install`) and export after ``run_main`` (see
``examples/metrics_report.py``).  Recording is passive, so a traced run's
simulated timestamps are bit-identical to an untraced one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional

from . import probes

__all__ = ["Tracer", "TraceEvent", "CATEGORIES", "install"]

#: Span categories recorded by the instrumented runtime.
CATEGORIES = ("task", "kernel", "transfer", "message", "stage", "fault",
              "sanitizer")


@dataclass(frozen=True)
class TraceEvent:
    """One span on one place's timeline."""

    category: str
    name: str
    place: str          # e.g. "gpu:0:1", "smp:0:3", "net:0->2"
    start: float
    end: float
    nbytes: int = 0

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown trace category {self.category!r}")
        if self.end < self.start:
            raise ValueError("span ends before it starts")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; provides queries and Paraver export."""

    def __init__(self):
        self.events: list[TraceEvent] = []

    # -- recording ---------------------------------------------------------
    def record(self, category: str, name: str, place: str, start: float,
               end: float, nbytes: int = 0) -> None:
        self.events.append(TraceEvent(category, name, place, start, end,
                                      nbytes))

    # -- probe points (each appends its span directly) -------------------
    def task_finished(self, task, place, start: float, end: float) -> None:
        self.events.append(TraceEvent("task", task.name, place.place_name,
                                      start, end))

    def kernel_done(self, task, place, start: float, end: float) -> None:
        self.events.append(TraceEvent("kernel", task.name, place.place_name,
                                      start, end))

    def transfer_done(self, region, link: str, start: float,
                      end: float) -> None:
        self.events.append(TraceEvent("transfer", region.obj.name, link,
                                      start, end, region.nbytes))

    def dispatch(self, task, node: int, start: float, end: float) -> None:
        self.events.append(TraceEvent("message", f"run:{task.name}",
                                      f"ctl:0->{node}", start, end))

    def fault(self, kind: str, detail: str, at: float) -> None:
        name = f"{kind}:{detail}" if detail else kind
        self.events.append(TraceEvent("fault", name, "faults", at, at))

    def finding(self, kind: str, task: str, obj: str, at: float) -> None:
        self.events.append(TraceEvent("sanitizer", f"{kind}:{task}/{obj}",
                                      "sanitizer", at, at))

    # -- queries ----------------------------------------------------------
    def by_category(self, category: str) -> list[TraceEvent]:
        return [e for e in self.events if e.category == category]

    def places(self) -> list[str]:
        return sorted({e.place for e in self.events})

    def timeline(self, place: str) -> list[TraceEvent]:
        return sorted((e for e in self.events if e.place == place),
                      key=lambda e: (e.start, e.end))

    def busy_time(self, place: str,
                  categories: Optional[Iterable[str]] = None) -> float:
        """Union length of the place's spans (overlaps merged)."""
        spans = [(e.start, e.end) for e in self.timeline(place)
                 if categories is None or e.category in categories]
        if not spans:
            return 0.0
        total = 0.0
        cur_start, cur_end = spans[0]
        for start, end in spans[1:]:
            if start > cur_end:
                total += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        return total + (cur_end - cur_start)

    def utilization(self, place: str, makespan: float,
                    categories: Optional[Iterable[str]] = None) -> float:
        if makespan <= 0:
            return 0.0
        return self.busy_time(place, categories) / makespan

    def gaps(self, place: str,
             categories: Optional[Iterable[str]] = None
             ) -> list[tuple[float, float]]:
        """Idle intervals between the place's spans (overlaps merged).

        Useful for the "where did the time go" questions the paper's
        evaluation asks: a GPU gap between a ``stage`` span and the next
        ``kernel`` span is staging latency prefetch should have hidden.
        """
        spans = [(e.start, e.end) for e in self.timeline(place)
                 if categories is None or e.category in categories]
        if not spans:
            return []
        idle: list[tuple[float, float]] = []
        cur_end = spans[0][1]
        for start, end in spans[1:]:
            if start > cur_end:
                idle.append((cur_end, start))
            cur_end = max(cur_end, end)
        return idle

    # -- Paraver export -----------------------------------------------------
    def to_paraver(self) -> str:
        """A minimal Paraver .prv rendering: one 'thread' per place, state
        records (type 1) per span, in microseconds."""
        places = self.places()
        ids = {p: i + 1 for i, p in enumerate(places)}
        end_us = max((e.end for e in self.events), default=0.0) * 1e6
        header = (f"#Paraver (repro):{int(end_us)}_us:"
                  f"1(1):{len(places)}({','.join('1' for _ in places)})")
        lines = [header]
        cat_code = {c: i + 1 for i, c in enumerate(CATEGORIES)}
        for e in sorted(self.events, key=lambda e: e.start):
            tid = ids[e.place]
            lines.append(
                f"1:{tid}:1:{tid}:1:{int(e.start * 1e6)}:"
                f"{int(e.end * 1e6)}:{cat_code[e.category]}"
            )
        return "\n".join(lines) + "\n"

    # -- Chrome trace export ------------------------------------------------
    def to_chrome(self, metrics: Optional[dict] = None) -> str:
        """Chrome trace-event JSON (open in ``chrome://tracing`` or
        https://ui.perfetto.dev).

        Each place becomes a named thread under one process; every span is a
        complete (``"ph": "X"``) event with microsecond timestamps.  Transfer
        spans carry their byte count in ``args``.  An optional ``metrics``
        dict (e.g. ``registry.snapshot()``) is embedded under
        ``otherData`` so one file holds both the timeline and the counters.
        """
        places = self.places()
        tids = {p: i + 1 for i, p in enumerate(places)}
        events: list[dict] = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tids[p],
             "args": {"name": p}}
            for p in places
        ]
        for e in sorted(self.events, key=lambda e: (e.start, e.end)):
            record: dict = {
                "name": e.name,
                "cat": e.category,
                "ph": "X",
                "pid": 1,
                "tid": tids[e.place],
                "ts": e.start * 1e6,
                "dur": e.duration * 1e6,
            }
            if e.nbytes:
                record["args"] = {"nbytes": e.nbytes}
            events.append(record)
        doc: dict = {"traceEvents": events, "displayTimeUnit": "ms"}
        if metrics is not None:
            doc["otherData"] = {"metrics": metrics}
        return json.dumps(doc, indent=1)


def install(tracer: "Tracer | None" = None):
    """Context manager: runtimes built inside record into ``tracer`` (a
    fresh one by default), yielded — :func:`repro.runtime.probes.install`
    for callers that never see the ``Runtime`` they run::

        from repro.runtime import trace

        with trace.install() as tracer:
            run_ompss(machine, size, config=config)
        chrome_json = tracer.to_chrome()
    """
    return probes.install(tracer or Tracer())
