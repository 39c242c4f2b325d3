"""The traced run: cProfile attribution per layer, plus benchmark-side spans.

One extra repetition of a workload runs under ``cProfile`` after the timed
phase.  Every profiled function is assigned to a *layer* by the source file
it lives in (the module names under ``src/repro``, with ``runtime`` split by
file), and a layer's ``self_s`` / ``calls`` are the sums of its functions'
own time and primitive call counts — child layers are excluded by
construction, because cProfile's ``inlinetime`` already is self time.

cProfile aggregates per function, it keeps no intervals; the *spans* in the
trace file are the ones the benchmark records around its own calls into the
program (``run_ompss`` / ``check_workload`` / ``svc.submit`` / ``svc.pump``).
Spans inside the program are a later change.  Everything is kept in memory
and written once, by :func:`write_trace`, when the workload is done.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import time
from contextlib import contextmanager, nullcontext

#: layer names, in report order; ``other`` is the stdlib, NumPy, builtins,
#: the ``repro.bench`` / ``repro.mpi`` helpers and the benchmark's own files.
LAYERS = (
    "sim", "hardware", "gasnet", "cuda", "memory", "metrics", "api", "apps",
    "runtime.core", "runtime.scheduler", "runtime.dependences",
    "runtime.coherence", "runtime.gpu_manager", "runtime.cluster",
    "runtime.datamove", "runtime.trace", "faults", "sanitizer", "service",
    "dagfuzz", "other",
)

_RUNTIME_FILES = {
    "scheduler": "runtime.scheduler", "cluster": "runtime.cluster",
    "dependences.py": "runtime.dependences",
    "coherence.py": "runtime.coherence",
    "gpu_manager.py": "runtime.gpu_manager",
    "datamove.py": "runtime.datamove", "trace.py": "runtime.trace",
}
_MARK = os.sep + os.path.join("src", "repro") + os.sep


def layer_of(filename: str) -> str:
    """The layer a source file belongs to (``other`` outside ``src/repro``)."""
    at = filename.rfind(_MARK)
    if at < 0:
        return "other"
    parts = filename[at + len(_MARK):].split(os.sep)
    if parts[0] == "runtime":
        return _RUNTIME_FILES.get(parts[1], "runtime.core")
    return parts[0] if parts[0] in LAYERS else "other"


class Spans:
    """Benchmark-side spans: name, start and end.  Every span the benchmark
    records is flat and sequential; a parent link comes back with the first
    nested one."""

    def __init__(self):
        self.records: list[dict] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "start": time.perf_counter(), "end": None}
        self.records.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()

    def totals(self) -> dict:
        """name -> {count, total_s}: the per-name sums the report quotes."""
        out: dict = {}
        for r in self.records:
            t = out.setdefault(r["name"], {"count": 0, "total_s": 0.0})
            t["count"] += 1
            t["total_s"] += r["end"] - r["start"]
        return out


class NoSpans:
    """The timed phase's recorder: tracing off, nothing kept."""

    @staticmethod
    def span(name: str):
        return nullcontext()


def profiled(fn):
    """Run ``fn()`` under cProfile; returns (result, wall_s, raw stats).

    A finished simulation leaves its suspended worker generators behind as
    cyclic garbage, and closing one counts as a call — in whichever thread
    the collector happens to run, profiled or not.  So the window collects
    before it opens, keeps the automatic collector off, and collects once
    more, in this thread, before it closes: every close of this run and
    none of an earlier one is counted, which is what makes the call counts
    repeat exactly.
    """
    profiler = cProfile.Profile()
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
        gc.collect()
    finally:
        profiler.disable()
        gc.enable()
    return result, time.perf_counter() - t0, profiler.getstats()


def attribute(stats) -> "tuple[dict, list]":
    """Sum raw cProfile entries per layer.

    Returns ``({layer: {"self_s", "calls"}}, functions)`` where
    ``functions`` is the per-function table the trace file keeps.
    """
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    functions = []
    for entry in stats:
        code = entry.code
        if isinstance(code, str):                 # a builtin
            filename, line, name = "~", 0, code
        else:
            filename, line, name = (code.co_filename, code.co_firstlineno,
                                    code.co_name)
        layer = layer_of(filename)
        calls = entry.callcount - entry.reccallcount
        layers[layer]["self_s"] += entry.inlinetime
        layers[layer]["calls"] += calls
        functions.append({"layer": layer, "file": filename, "line": line,
                          "function": name, "calls": calls,
                          "self_s": entry.inlinetime,
                          "cumulative_s": entry.totaltime})
    functions.sort(key=lambda f: -f["self_s"])
    return layers, functions


def total_calls(stats) -> int:
    return sum(e.callcount - e.reccallcount for e in stats)


def write_trace(path: str, workload: str, layers: dict, functions: list,
                spans: Spans) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": workload, "layers": layers,
                   "span_totals": spans.totals(), "spans": spans.records,
                   "functions": functions}, fh, indent=1)
        fh.write("\n")
