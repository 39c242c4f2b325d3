"""Every function under ``src/repro`` is reached from the program, or kept
for a stated reason.

    PYTHONPATH=src python -m tests.reachability

Runs the repo's entry points — the figure CLI, the job service, the
sanitizer, the fuzzer's CI sweeps and self-tests, the two perf benchmarks
and every example — in this process under one :class:`cProfile.Profile`,
then lists every function (a ``def`` at any depth) under ``src/repro``
that none of them called.  Exits 1 on

* an entry point that exits with other than its expected code (``cProfile``
  would otherwise hide a run that died in argument parsing),
* an unreached function with no :data:`KEEP` reason, and
* a :data:`KEEP` entry whose function the entry points reach, or that
  names no function.

Code that only forked children run (pool jobs, ``--parallel`` sweep
points) is not seen here; the in-process twins of those runs
(``demo --workers 0``, the eager ``worker``) reach it.  The scan takes
minutes, so it is a step of the CI ``bench`` job, not of tier-1;
``tests/test_reachability_table.py`` checks :data:`KEEP` statically.
"""

from __future__ import annotations

import ast
import collections
import contextlib
import cProfile
import hashlib
import io
import os
import pstats
import runpy
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Each :data:`KEEP` reason starts with one of these, then ``": "``
#: (docs/ARCHITECTURE.md, "What stays", says what each admits).
CATEGORIES = ("safety", "oracle", "ledger", "body", "abstract", "repr",
              "paper", "observe", "client", "pinned")

#: ``"module:qualname"`` -> why it stays although no entry point calls it.
KEEP: dict[str, str] = {
    # -- safety ------------------------------------------------------------
    **dict.fromkeys([
        "repro.faults.engine:FaultEngine._clone",
        "repro.faults.engine:FaultEngine._pcie_boundary",
        "repro.faults.engine:FaultEngine._replay_producers",
        "repro.faults.engine:FaultEngine.check_now",
        "repro.faults.engine:FaultEngine.return_to_master",
        "repro.faults.engine:FaultEngine.wait_restored",
        "repro.runtime.cluster.master:CommThread.forget_dispatch",
        "repro.runtime.cluster.master:NodeProxy.lose_gpus",
        "repro.runtime.datamove:DataMover.note_resubmit",
    ], "safety: fault recovery, which only a plan with device loss, "
       "timed windows or paranoid checks reaches (tests/faults)"),
    "repro.sim.core:Event.fail":
        "safety: error propagation into the processes waiting on an event",
    "repro.sim.resources:Resource._cancel":
        "safety: withdraws a waiting request that leaves its `with` block "
        "before it is granted",
    "repro.bench.sweep:SweepPointError.__init__":
        "safety: names the sweep point whose forked run failed",
    "repro.service.cli:_fail_staged":
        "safety: a malformed staged request or status fails its job, not "
        "the worker (CI service-smoke)",
    "repro.service.cli:_worker_gone":
        "safety: tells a running job whose worker died (re-adopt it) from "
        "one a live worker holds",
    "repro.service.isolation:IsolatedCall.kill":
        "safety: stops a forked job that must not finish",
    "repro.memory.space:HostSpace.drop":
        "safety: frees a slave host's dropped copy, as DeviceSpace.drop "
        "does a device's; no entry point drops a slave-host region",
    "repro.sanitizer.recorder:WatchedBuffer.__array__":
        "safety: notes a read made through np.asarray, which would "
        "otherwise hide a race from the sanitizer",
    # -- oracle ------------------------------------------------------------
    **dict.fromkeys([
        "repro.apps.cholesky.serial:run_serial",
        "repro.apps.cholesky.common:serial_cholesky_tiled",
        "repro.apps.cholesky.common:serial_cholesky_tiled.<locals>.tile",
        "repro.apps.cholesky.common:tiled_to_dense",
        "repro.apps.jacobi.serial:run_serial",
        "repro.apps.jacobi.common:jacobi_reference",
        "repro.apps.jacobi.common:jacobi_step",
        "repro.apps.nbody.serial:run_serial",
        "repro.apps.perlin.serial:run_serial",
        "repro.apps.perlin.common:serial_perlin",
        "repro.apps.spreduce.serial:run_serial",
        "repro.apps.spreduce.common:serial_reduce",
        "repro.apps.stream.serial:run_serial",
        "repro.apps.stream.common:serial_stream",
    ], "oracle: the serial reference the functional tests compare "
       "against"),
    **dict.fromkeys([
        "repro.apps.matmul.cuda_single:run_cuda",
        "repro.apps.matmul.cuda_single:run_cuda.<locals>.main",
        "repro.apps.nbody.cuda_single:run_cuda",
        "repro.apps.nbody.cuda_single:run_cuda.<locals>.body",
        "repro.apps.nbody.cuda_single:run_cuda.<locals>.main",
        "repro.apps.perlin.cuda_single:run_cuda",
        "repro.apps.perlin.cuda_single:run_cuda.<locals>.body",
        "repro.apps.perlin.cuda_single:run_cuda.<locals>.main",
        "repro.apps.stream.cuda_single:run_cuda",
        "repro.apps.stream.cuda_single:run_cuda.<locals>.main",
        "repro.apps.stream.cuda_single:_kernels",
        "repro.apps.stream.cuda_single:_kernels.<locals>.k",
        "repro.apps.stream.common:StreamSize.vector_bytes",
    ], "oracle: the single-GPU CUDA baseline Table I counts"),
    **dict.fromkeys([
        "repro.faults.invariants:check_coherence",
        "repro.faults.invariants:check_quiescent",
    ], "oracle: the coherence invariants the chaos suite checks, and "
       "ROADMAP item 9c's paranoid oracle builds on"),
    # -- ledger ------------------------------------------------------------
    **dict.fromkeys([
        "repro.service.api:Service.local",
        "repro.service.api:Service.state",
        "repro.service.job:JobState.terminal",
        "repro.service.job:_plan_to_dict",
        "repro.service.job:_plan_from_dict",
        "repro.service.isolation:call_isolated",
        "repro.runtime.trace:Tracer.record",
        "repro.runtime.config:RuntimeConfig.with_",
        "repro.gasnet.am:AMLayer.endpoint",
        "repro.bench.sweep:run_point",
    ], "ledger: benchmarks/ledger pins it and reaches it only in its "
       "child processes"),
    # -- body --------------------------------------------------------------
    **dict.fromkeys([
        "repro.apps.matmul.ompss:matmul_tile",
        "repro.apps.matmul.init_variants:init_tile_smp",
        "repro.apps.matmul.init_variants:init_tile_gpu",
        "repro.apps.perlin.mpi_cuda:run_mpi_cuda.<locals>.rank_proc"
        ".<locals>.body",
    ], "body: a task or kernel body that only functional mode runs"),
    # -- abstract ----------------------------------------------------------
    **dict.fromkeys([
        "repro.memory.space:AddressSpace.read",
        "repro.memory.space:AddressSpace.write",
        "repro.memory.space:AddressSpace.drop",
        "repro.runtime.scheduler.base:WorkerProtocol.accepts",
        "repro.sim.sync:_Condition._check",
    ], "abstract: the interface each subclass overrides"),
    # -- repr --------------------------------------------------------------
    **dict.fromkeys([
        "repro.api.data:DataHandle.__repr__",
        "repro.api.data:DataView.__repr__",
        "repro.api.decorators:TaskFunction.__repr__",
        "repro.apps.base:AppResult.__repr__",
        "repro.hardware.cluster:Machine.__repr__",
        "repro.hardware.gpu:GPUDevice.__repr__",
        "repro.hardware.node:Node.__repr__",
        "repro.memory.region:DataObject.__repr__",
        "repro.memory.space:AddressSpace.__repr__",
        "repro.metrics.registry:Counter.__repr__",
        "repro.metrics.registry:Gauge.__repr__",
        "repro.metrics.registry:Histogram.__repr__",
        "repro.runtime.cluster.master:NodeProxy.__repr__",
        "repro.runtime.gpu_manager:GPUManager.__repr__",
        "repro.runtime.task:Access.__repr__",
        "repro.runtime.task:Task.__repr__",
        "repro.runtime.worker:SMPWorker.__repr__",
        "repro.sanitizer.clock:VectorClock.__repr__",
        "repro.sanitizer.recorder:BufferWatch.__repr__",
        "repro.sim.core:Event.__repr__",
    ], "repr: a debug aid"),
    # -- paper -------------------------------------------------------------
    "repro.api.program:Program.taskwait_on":
        "paper: `taskwait on(...)`, the paper's wait on named data",
    **dict.fromkeys([
        "repro.memory.region:relation",
        "repro.memory.region:check_supported_overlap",
    ], "paper: the equal-or-disjoint region rule (Section II.A.3) "
       "`taskwait on` applies at the call"),
    # -- observe -----------------------------------------------------------
    **dict.fromkeys([
        "repro.memory.space:AddressSpace.holds_buffer",
        "repro.memory.space:HostSpace.holds_buffer",
        "repro.memory.space:DeviceSpace.holds_buffer",
    ], "observe: tests observe that an eviction frees the buffer"),
    "repro.sim.resources:Resource.queue_len":
        "observe: tests observe a withdrawn request leaving the wait queue",
    "repro.runtime.scheduler.base:Scheduler.recount_pending":
        "observe: the recount tests/conftest.py holds the maintained "
        "`scheduler.pending` count to after every scheduler operation",
    **dict.fromkeys([
        "repro.runtime.probes:JsonLinesRecorder.__init__",
        "repro.runtime.probes:JsonLinesRecorder.attach",
        "repro.runtime.probes:JsonLinesRecorder.__getattr__",
        "repro.runtime.probes:JsonLinesRecorder.__getattr__.<locals>"
        ".record",
        "repro.runtime.probes:_plain",
    ], "observe: the probe stream whose digest each golden pins "
       "(tests/bench/golden_scenarios.py)"),
    # -- client ------------------------------------------------------------
    "repro.service.api:Service.wait":
        "client: the blocking call of a library client (docs/SERVICE.md); "
        "the CLI and the benchmarks drain the whole queue instead",
    "repro.runtime.trace:Tracer.by_category":
        "client: the tracer's span filter (docs/OBSERVABILITY.md), how a "
        "reader of a run's spans picks one kind",
    "repro.runtime.trace:Tracer.gaps":
        "client: the tracer's per-place idle query (docs/OBSERVABILITY.md)",
    **dict.fromkeys([
        "repro.runtime.trace:Tracer.dispatch",
        "repro.runtime.trace:Tracer.fault",
        "repro.runtime.trace:Tracer.finding",
    ], "client: the tracer's span of a cluster dispatch, a fault note or "
       "a sanitizer finding; no entry point traces such a run"),
    # -- pinned ------------------------------------------------------------
    **dict.fromkeys([
        "repro.bench.figures:ablation_points",
        "repro.bench.figures:ablation_points.<locals>.cluster",
        "repro.bench.figures:ablation_points.<locals>.node",
        "repro.bench.figures:ablation_points.<locals>.point",
    ], "pinned: the ablation points benchmarks/test_figure_points_pinned.py "
       "simulates against figure_points.json"),
}


def _entry_points(tmp: str) -> list:
    """``(target, argv, expected exit code)``: a module run as ``-m`` or
    a script path under the repo root."""
    staged = os.path.join(tmp, "staging")
    submit = ["submit", "--staging", staged, "--app", "matmul",
              "--size", "n=256,bs=64"]
    service = [
        ["demo", "--workers", "2"],
        ["demo", "--workers", "0"],
        submit + ["--perf", "--job-id", "pool-perf"],
        submit + ["--sanitize", "--job-id", "pool-san"],
        ["worker", "--staging", staged, "--pool", "2", "--strict"],
        submit + ["--perf", "--job-id", "eager-perf"],
        submit + ["--sanitize", "--job-id", "eager-san"],
        ["worker", "--staging", staged],
        ["status", "eager-perf", "--staging", staged],
        ["artifacts", "eager-perf", "--staging", staged],
        ["artifacts", "eager-perf", "--staging", staged,
         "--fetch", "result"],
    ]
    fuzz = [  # the CI fuzz-smoke sweeps (its rotating window at run 0)
        ["--seeds", "0:25", "--schedulers", "all"],
        ["--seeds", "0:10", "--profile", "nested,irregular",
         "--schedulers", "affinity,ws,cp", "--datamove", "on"],
        ["--seeds", "100:180", "--profile", "nested", "--schedulers", "all",
         "--cache-policies", "nocache", "--machines", "gpu1,gpu4,cluster2",
         "--datamove", "on"],
        ["--seeds", "1000:1025", "--profile", "all", "--schedulers", "all"],
    ]
    mutate = ["--seeds", "0:10", "--schedulers", "default",
              "--cache-policies", "wb", "--machines", "gpu2", "--mutate"]
    return [
        ("repro.bench", ["all"], 0),
        ("repro.bench", ["fig5", "--parallel", "2"], 0),
        *(("repro.service", argv, 0) for argv in service),
        ("repro.sanitizer", [], 0),
        ("repro.sanitizer", ["--nodes", "2"], 0),
        ("repro.sanitizer", ["--fixtures"], 0),
        ("repro.sanitizer", ["--json"], 0),
        ("repro.sanitizer", ["--fixtures", "--json"], 0),
        *(("repro.dagfuzz", argv, 0) for argv in fuzz),
        *(("repro.dagfuzz", mutate + [m], 1)
          for m in ("drop_arc", "stale_cache_read", "skip_writeback")),
        ("benchmarks/perf/faults_bench.py",
         ["--smoke", "--out", os.path.join(tmp, "faults.json")], 0),
        ("benchmarks/perf/comm_bench.py", ["--quick"], 0),
        *((str(path.relative_to(ROOT)), [], 0)
          for path in sorted((ROOT / "examples").glob("*.py"))),
    ]


def _run(target: str, argv: list) -> "tuple[int, str]":
    """Run one entry point as its command line would; (exit code, output)."""
    out = io.StringIO()
    saved_argv = sys.argv
    sys.argv = [target, *argv]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            if target.endswith(".py"):
                runpy.run_path(str(ROOT / target), run_name="__main__")
            else:
                runpy.run_module(target, run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = (exc.code if isinstance(exc.code, int)
                else 0 if exc.code is None else 1)
    finally:
        sys.argv = saved_argv
    return code, out.getvalue()


def reached_lines(profile: cProfile.Profile) -> set:
    """``(path, co_firstlineno)`` of every function the profile saw."""
    return {(os.path.realpath(path), line)
            for path, line, _ in pstats.Stats(profile).stats}


class Function(NamedTuple):
    key: str            # "module:qualname"
    path: str
    first: int          # the line of its first decorator, else of its def
    lines: int          # first .. end, inclusive


def functions(src: Path = SRC) -> list:
    """Every ``def`` under ``src``, keyed as :data:`KEEP` keys it.

    A code object's ``co_firstlineno`` is the line of its first decorator,
    so that is the line a function is matched on, not the ``def`` line.
    """
    found = []
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(), str(path))
        _collect(tree, module, os.path.realpath(path), (), found)
    return found


def _collect(node, module, path, scope, found) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([d.lineno for d in child.decorator_list]
                        + [child.lineno])
            qual = ".".join(scope + (child.name,))
            found.append(Function(f"{module}:{qual}", path, first,
                                  child.end_lineno - first + 1))
            _collect(child, module, path, scope + (child.name, "<locals>"),
                     found)
        elif isinstance(child, ast.ClassDef):
            _collect(child, module, path, scope + (child.name,), found)
        else:
            _collect(child, module, path, scope, found)


def main() -> int:
    start = time.time()
    failed = False
    profile = cProfile.Profile()
    with tempfile.TemporaryDirectory() as tmp:
        for target, argv, expected in _entry_points(tmp):
            began = time.time()
            profile.enable()
            try:
                code, output = _run(target, argv)
            finally:
                profile.disable()
            ok = code == expected
            failed = failed or not ok
            print(f"{'ok ' if ok else 'BAD'} {time.time() - began:6.1f}s  "
                  f"exit {code} (want {expected})  {target} {' '.join(argv)}",
                  flush=True)
            if not ok:
                print(output[-4000:])
    reached = reached_lines(profile)
    every = functions()
    unreached = [f for f in every if (f.path, f.first) not in reached]
    keys = {f.key for f in unreached}
    missing = sorted(keys - KEEP.keys())
    stale = sorted(KEEP.keys() - keys)
    digest = hashlib.sha256("\n".join(sorted(keys)).encode()).hexdigest()
    kept = collections.Counter(KEEP[k].partition(": ")[0]
                               for k in keys & KEEP.keys())
    print(f"\n{len(every)} functions, {sum(f.lines for f in every)} "
          f"function lines under src/repro")
    print(f"unreached: {len(unreached)} functions, "
          f"{sum(f.lines for f in unreached)} lines "
          f"(set sha256 {digest[:16]})")
    print("  kept: " + ", ".join(f"{n} {c}" for c, n in sorted(kept.items())))
    print(f"  without a KEEP reason: {len(missing)} functions, "
          f"{sum(f.lines for f in unreached if f.key in missing)} lines")
    for key in missing:
        print(f"  unreached, no KEEP reason: {key}")
    for key in stale:
        print(f"  stale KEEP entry (reached, or no such function): {key}")
    print(f"[scan took {time.time() - start:.0f}s wall]")
    return 1 if failed or missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
