"""The five ledger workloads.

Each workload builds its inputs from ``(seed, smoke)`` and offers two calls:
``check()`` — the output check that runs once before timing — and
``rep(spans)`` — one closed-loop repetition of the whole workload, returning
a :class:`Rep`.  An *op* is one simulation run together with its output
check; failed ops are described (with a replay command) and counted, they
never abort the run.

Why these five (the README has the full table): ``matmul-cluster`` is the
only one where gasnet / hardware.network / runtime.cluster do work;
``cholesky-mgpu`` stresses dependences and the scheduler and bypasses the
network layers; ``stream-evict`` overflows the software cache, so memory and
the coherence write-back path dominate; ``fuzz-functional`` is a thousand
tiny functional runs, so construction and per-run set-up dominate; and
``svc-mixed`` is the service path with tracer, sanitizer and fault engine
switched on.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, field
from unittest import mock

import numpy as np

from repro.apps import cholesky, matmul, stream
from repro.bench.harness import CLUSTER_BEST, fresh_cluster, fresh_multi_gpu
from repro.bench.sweep import PointSpec, run_point
from repro.dagfuzz import MACHINES, PROFILES, check_workload, generate
from repro.dagfuzz import runner as fuzz_runner
from repro.dagfuzz.cli import replay_command
from repro.faults import FaultEvent, FaultPlan
from repro.runtime import Runtime
from repro.runtime.config import SCHEDULERS, RuntimeConfig
from repro.service import JobRequest, JobState, Service
from repro.service.runner import build_size

from catalog import HERE

NPROC = os.cpu_count() or 1
OUT_DIR = os.path.join(HERE, "out")

BEST = RuntimeConfig(**CLUSTER_BEST)
CACHES = ("wb", "wt", "nocache")


@dataclass
class Rep:
    """What one repetition of a workload did."""

    wall_s: float                               #: host seconds of the timed region
    ops: int                                    #: simulation runs attempted
    makespan: float                             #: Σ simulated makespans
    counters: dict                              #: Σ counters_of() over the runs
    failures: list = field(default_factory=list)      #: one line per failed op
    latencies: list = field(default_factory=list)     #: svc-mixed: s per job


_CACHE_LEAVES = ("hits", "misses", "evictions", "writebacks")


def counters_of(snapshot: dict) -> dict:
    """The counters one run already publishes, under the ledger's layer
    names.  Every value adds across runs (a run's busiest link is found
    here, so ``hardware.link_busy_max_s`` sums the per-run maxima)."""
    get = snapshot.get
    out = {
        "sim.events": get("engine.events_processed", 0),
        "runtime.core.tasks": get("runtime.tasks_finished", 0),
        "runtime.scheduler.ready_submissions":
            get("scheduler.ready_submissions", 0),
        "runtime.scheduler.steals": get("scheduler.steals", 0),
        "runtime.scheduler.pending_high_water":
            get("scheduler.pending.high_water", 0),
        "memory.cache_hits": 0, "memory.cache_misses": 0,
        "memory.cache_evictions": 0, "memory.cache_writebacks": 0,
        "memory.directory_lookups": get("directory.lookups", 0),
        "runtime.coherence.transfers": get("coherence.transfers", 0),
        "runtime.coherence.bytes": get("coherence.bytes_transferred", 0),
        "runtime.coherence.dedup_hits": get("coherence.dedup_hits", 0),
        "gasnet.am_messages": get("am.short_sent", 0) + get("am.long_sent", 0),
        "gasnet.am_bytes": get("am.bytes_sent", 0),
        "hardware.link_busy_max_s": 0.0,
        "cuda.kernels": 0, "cuda.dma_bytes": 0,
        "runtime.cluster.presends": 0,
        "runtime.gpu_manager.prefetch_hits": 0,
    }
    for key, value in snapshot.items():
        leaf = key.rpartition(".")[2]
        if key.startswith("cache."):
            if leaf in _CACHE_LEAVES:
                out["memory.cache_" + leaf] += value
        elif key.startswith("gpu."):
            if leaf == "kernels":
                out["cuda.kernels"] += value
            elif leaf == "bytes" and ".dma." in key:
                out["cuda.dma_bytes"] += value
            elif key.endswith(".prefetch.hits"):
                out["runtime.gpu_manager.prefetch_hits"] += value
        elif key.startswith("cluster."):
            if leaf == "presends":
                out["runtime.cluster.presends"] += value
        elif key.startswith("hardware.link.") and leaf == "busy_seconds":
            out["hardware.link_busy_max_s"] = max(
                out["hardware.link_busy_max_s"], value)
    return out


def sum_counters(parts) -> dict:
    total: dict = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total


#: for the workloads whose every op carries its own check.
NO_CHECK = Rep(0.0, ops=0, makespan=0.0, counters={})


# ----------------------------------------------------------------------
# The three long simulations
# ----------------------------------------------------------------------

class SimWorkload:
    """One perf-mode ``run_ompss`` of a figure-sized problem per rep."""

    def __init__(self, name, app, machine, size, smoke_size, config,
                 test_size, rtol, smoke: bool):
        self.name = name
        self.app = app
        self.machine = machine
        self.size = smoke_size if smoke else size
        self.config = config
        self.test_size = test_size
        self.rtol = rtol

    def check(self) -> Rep:
        """Same app / machine / config at the app's TEST size, functional
        mode, against ``run_serial`` with the tests' own tolerance."""
        res = self.app.run_ompss(self.machine(), self.test_size,
                                 self.config.with_(functional=True),
                                 verify=True)
        ref = self.app.run_serial(self.test_size).output
        bad = [key for key in ref
               if not np.allclose(res.output[key], ref[key],
                                  rtol=self.rtol, atol=0.0)]
        failures = [f"{self.name}: functional TEST-size output differs from "
                    f"run_serial in {bad}; replay: PYTHONPATH=src python -m "
                    f"pytest tests/apps -q"] if bad else []
        return Rep(0.0, ops=1, makespan=res.makespan,
                   counters=counters_of(res.metrics), failures=failures)

    def rep(self, spans) -> Rep:
        t0 = time.perf_counter()
        with spans.span("run_ompss"):
            res = self.app.run_ompss(self.machine(), self.size, self.config)
        wall = time.perf_counter() - t0
        m = res.metrics
        failures = []
        if m["runtime.tasks_finished"] != m["runtime.tasks_submitted"]:
            failures.append(
                f"{self.name}: {m['runtime.tasks_finished']} of "
                f"{m['runtime.tasks_submitted']} tasks finished; replay: "
                f"PYTHONPATH=src python benchmarks/ledger/run.py "
                f"--workload {self.name} --reps 1")
        return Rep(wall, ops=1, makespan=res.makespan,
                   counters=counters_of(m), failures=failures)


#: the cholesky miniature: the smoke size, and the point the feature-tax
#: pairs run on.
CHOLESKY_MINI = cholesky.CholeskySize(n=8192, bs=512)


def matmul_cluster(seed: int, smoke: bool) -> SimWorkload:
    return SimWorkload(
        "matmul-cluster", matmul, lambda: fresh_cluster(8),
        matmul.MatmulSize(n=12288, bs=512), matmul.MatmulSize(n=4608, bs=512),
        BEST.with_(presend=4), matmul.TEST_MATMUL, 1e-4, smoke)


def cholesky_mgpu(seed: int, smoke: bool) -> SimWorkload:
    return SimWorkload(
        "cholesky-mgpu", cholesky, lambda: fresh_multi_gpu(4),
        cholesky.CholeskySize(n=24576, bs=512), CHOLESKY_MINI,
        BEST, cholesky.TEST_CHOLESKY, 0.0, smoke)


def stream_evict(seed: int, smoke: bool) -> SimWorkload:
    return SimWorkload(
        "stream-evict", stream, lambda: fresh_multi_gpu(4),
        stream.StreamSize(n=536870912, bsize=1048576, ntimes=10),
        stream.StreamSize(n=268435456, bsize=1048576, ntimes=1),
        BEST.with_(gpu_cache_fraction=0.2), stream.TEST_STREAM, 1e-12, smoke)


# ----------------------------------------------------------------------
# fuzz-functional
# ----------------------------------------------------------------------

class FuzzWorkload:
    """``runs`` differential fuzz runs, each bit-checked by the oracle.

    The window is ``seed_i = 1000 * seed + i``; profile, scheduler, cache
    policy and machine rotate as the digits of ``i`` in mixed radix
    6/6/3/5, so the 540 combinations are all covered inside 1000 runs.
    """

    name = "fuzz-functional"

    def __init__(self, seed: int, smoke: bool):
        self.runs = 50 if smoke else 1000
        profiles = tuple(PROFILES)
        self.plan = [(1000 * seed + i, profiles[i % 6],
                      SCHEDULERS[i // 6 % 6], CACHES[i // 36 % 3],
                      MACHINES[i // 108 % 5]) for i in range(self.runs)]

    def check(self) -> Rep:
        return NO_CHECK                           # every run is checked

    def rep(self, spans) -> Rep:
        registries = []

        class Recording(Runtime):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                registries.append(self.metrics)

        failures = []
        parts = []
        wall = makespan = 0.0
        # check_workload returns no counter snapshot and this benchmark may
        # not edit src/, so the Runtime name its runner resolves is swapped
        # for a subclass that hands over each run's registry.  Reading the
        # registry is bookkeeping, so only the ops themselves are on the
        # clock.
        with mock.patch.object(fuzz_runner, "Runtime", Recording):
            for seed, profile, sched, cache, machine in self.plan:
                t0 = time.perf_counter()
                with spans.span("check_workload"):
                    res = check_workload(
                        generate(seed, profile), machine=machine,
                        config=RuntimeConfig(functional=True, scheduler=sched,
                                             cache_policy=cache))
                wall += time.perf_counter() - t0
                parts.append(counters_of(registries.pop().snapshot()))
                makespan += res.makespan
                if not res.ok:
                    failures.append(
                        f"fuzz seed {seed}: {res.describe()}; replay: "
                        + replay_command(seed, profile, sched, cache,
                                         machine, "off"))
        return Rep(wall, ops=self.runs, makespan=makespan, failures=failures,
                   counters=sum_counters(parts))


# ----------------------------------------------------------------------
# svc-mixed
# ----------------------------------------------------------------------

FUNCTIONAL_APPS = ("stream", "perlin", "nbody", "jacobi", "spreduce")
PERF_SIZES = {"matmul": {"n": 512, "bs": 64},
              "cholesky": {"n": 2048, "bs": 256}}
#: recoverable: the second kernel launched anywhere aborts and is re-run.
ONE_ABORT = FaultPlan(events=(FaultEvent(kind="kernel_abort", nth=2),))


def _job(i: int) -> JobRequest:
    """Job ``i`` of the mix: half perf jobs, half functional TEST-size jobs;
    every third on the cluster (which the picker routes to the pool), half
    traced, a quarter of the functional ones sanitized, one in ten with a
    recoverable fault plan."""
    common = dict(
        machine="cluster" if i % 3 == 2 else "multi_gpu", count=2,
        tenant=("alice", "bob", "carol")[i % 3],
        collect_trace=i // 4 % 2 == 0,
        fault_plan=ONE_ABORT if i % 10 == 9 else None)
    if i % 4 < 2:
        app = ("matmul", "cholesky")[i % 4]
        return JobRequest(app=app, size=PERF_SIZES[app],
                          config=RuntimeConfig(functional=False), **common)
    return JobRequest(app=FUNCTIONAL_APPS[i // 4 % 5], sanitize=i % 8 == 2,
                      **common)


def _is_perf(request: JobRequest) -> bool:
    return request.config is not None and not request.config.functional


def _perf_key(request: JobRequest):
    return (request.app, request.machine, request.fault_plan is not None)


class SvcWorkload:
    """The job mix through ``Service.local``, ``NPROC`` jobs outstanding.

    Closed loop: the driver submits the next job of the seeded order only
    when one of the outstanding ones is observed terminal, and never keeps
    more than ``NPROC`` in flight — with the pool's ``NPROC - 1`` workers
    and the eager backend running in this process, no more than ``NPROC``
    processes are ever busy.
    """

    name = "svc-mixed"

    def __init__(self, seed: int, smoke: bool):
        # The seed permutes the ten blocks of twelve consecutive jobs and
        # keeps the mix's order inside a block.  With only ``NPROC`` jobs
        # outstanding, which eager jobs run next to which pool job decides
        # how well the two overlap: a free shuffle moved ``wall_s`` by a
        # fifth from seed to seed, blocks move it by a fortieth, so the
        # overlap belongs to the mix, not to the seed.
        mix = [_job(i) for i in range(120)]
        blocks = [mix[i:i + 12] for i in range(0, 120, 12)]
        random.Random(seed).shuffle(blocks)
        self.jobs = [request for block in blocks for request in block]
        if smoke:
            self.jobs = self.jobs[:8]
        self.workers = max(1, NPROC - 1)
        self.outstanding = NPROC
        self._rep = 0
        #: reference makespan of each distinct perf spec, from a direct
        #: ``run_point`` (tracing does not move a makespan; a fault does).
        self.reference = {}
        for request in self.jobs:
            if _is_perf(request) and _perf_key(request) not in self.reference:
                self.reference[_perf_key(request)] = run_point(PointSpec(
                    figure="ledger", series="svc", x=0, app=request.app,
                    machine=request.machine, count=request.count,
                    size=build_size(request.app, request.size),
                    config=request.resolved_config()))["makespan"]

    def check(self) -> Rep:
        return NO_CHECK                           # every job is checked

    def rep(self, spans) -> Rep:
        self._rep += 1
        staging = os.path.join(OUT_DIR,
                               f"staging-{os.getpid()}-{self._rep}")
        try:
            return self._drive(spans, staging)
        finally:
            shutil.rmtree(staging, ignore_errors=True)

    def _drive(self, spans, staging: str) -> Rep:
        latencies = []
        t0 = time.perf_counter()
        with Service.local(workers=self.workers, staging=staging) as svc:
            todo = list(reversed(self.jobs))
            requests = {}                        # job id -> request
            in_flight = {}                       # job id -> submit time
            while todo or in_flight:
                while todo and len(in_flight) < self.outstanding:
                    request = todo.pop()
                    start = time.perf_counter()
                    with spans.span("svc.submit"):
                        job_id = svc.submit(request)
                    requests[job_id] = request
                    in_flight[job_id] = start
                with spans.span("svc.pump"):
                    progressed = svc.pump()
                now = time.perf_counter()
                for job_id in [j for j in in_flight
                               if svc.state(j).terminal]:
                    latencies.append(now - in_flight.pop(job_id))
                if not progressed and in_flight:
                    with spans.span("svc.idle_wait"):
                        time.sleep(0.0005)
            wall = time.perf_counter() - t0
            results = {j: svc.result(j) for j in requests}
            service = svc.metrics.snapshot()
        failures = []
        for job_id, result in results.items():
            request = requests[job_id]
            problem = None
            if result.state is not JobState.DONE:
                problem = (result.error or "no error text").strip()
                problem = "failed: " + problem.splitlines()[-1]
            elif _is_perf(request) and \
                    result.makespan != self.reference[_perf_key(request)]:
                problem = (f"makespan {result.makespan!r} differs from "
                           f"run_point's "
                           f"{self.reference[_perf_key(request)]!r}")
            if problem:
                failures.append(
                    f"svc job {job_id}: {problem}; replay: execute_request("
                    f"JobRequest.from_dict({request.to_dict()!r}))")
        done = [r for r in results.values() if r.state is JobState.DONE]
        counters = sum_counters(counters_of(r.metrics) for r in done)
        counters["service.jobs_done"] = service.get(
            "service.jobs_completed", 0)
        counters["service.jobs_done_on_pool"] = service.get(
            "service.backend.pool.completed", 0)
        return Rep(wall, ops=len(results),
                   makespan=sum(r.makespan for r in done), counters=counters,
                   failures=failures, latencies=latencies)


WORKLOADS = {
    "matmul-cluster": matmul_cluster,
    "cholesky-mgpu": cholesky_mgpu,
    "stream-evict": stream_evict,
    "fuzz-functional": FuzzWorkload,
    "svc-mixed": SvcWorkload,
}
