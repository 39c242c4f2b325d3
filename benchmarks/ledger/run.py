"""The layered performance ledger: five workloads, two clocks, one command.

    PYTHONPATH=src python benchmarks/ledger/run.py [--seed S] [--reps N]
                                                   [--smoke] [--out FILE]

runs all five workloads (one child process per workload, one at a time),
prints every metric by name with its unit, checks outputs, compares the
exactly-repeating quantities with ``expected.json`` and writes the results
and the trace files under ``benchmarks/ledger/out/``.

The benchmark driver's form measures one workload per process::

    python3 benchmarks/ledger/run.py --workload W --seed S --seconds T --trace 0|1

and ends with one JSON line: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``BENCHMARK.json`` at the repository
root names every metric, its unit and its bound; README.md says what each one
means and what it should move.

Two clocks: simulated-clock numbers (makespans, counters, call counts) are
deterministic and compare exactly; host-clock numbers are medians over
repetitions.  End-to-end metrics never come from the traced run.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from catalog import (END_TO_END, HERE, OWN_WORKLOAD, PER_LAYER, ROOT,
                     is_exact)

SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"ledger: the program under test is missing ({SRC}/repro)")
sys.path.insert(0, SRC)

import probes                                      # noqa: E402
import trace as ledger_trace                       # noqa: E402
from workloads import NPROC, OUT_DIR, WORKLOADS    # noqa: E402

SCHEMA = "repro.ledger/v1"
DEFAULT_SEED = 11
EXPECTED_PATH = os.path.join(HERE, "expected.json")


# ----------------------------------------------------------------------
# Host block
# ----------------------------------------------------------------------

def calibrate(rounds: int = 3, n: int = 60_000) -> float:
    """Host speed score: iterations/s of an engine-shaped pure-Python loop
    (heap pushes and pops, dict traffic) — the perf gate's calibration,
    kept local so the ledger depends on nothing outside its directory."""
    best = 0.0
    for _ in range(rounds):
        heap: list = []
        table: dict = {}
        total = 0
        t0 = time.perf_counter()
        for i in range(n):
            heapq.heappush(heap, (i % 97, i))
            table[i % 512] = i
            total += table.get((i * 7) % 512, 0)
            if i % 3 == 0:
                heapq.heappop(heap)
        best = max(best, n / (time.perf_counter() - t0))
    return best


def host_block() -> dict:
    return {"nproc": NPROC, "python": platform.python_version(),
            "calibration_iters_per_s": calibrate(),
            "loadavg_at_start": os.getloadavg()[0]}


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------

def _quartiles(values) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def measure_setup(name: str, seed: int, count: int) -> list:
    """Wall time of ``count`` fresh interpreters that each import the
    program, build this workload's inputs and run its miniature once."""
    walls = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--workload", name, "--seed", str(seed),
                        "--setup-only"],
                       check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - t0)
    return walls


def timed_phase(workload, reps, seconds) -> dict:
    """Repeat the workload with tracing off: ``reps`` times, or until
    ``seconds`` have passed (three times at least)."""
    check = workload.check()
    failures = list(check.failures)
    attempted = check.ops
    walls, latencies = [], []       # per rep: seconds, [seconds per job]
    first = None
    deadline = time.perf_counter() + (seconds or 0)
    while True:
        gc.collect()
        rep = workload.rep(ledger_trace.NoSpans())
        walls.append(rep.wall_s)
        latencies.append(rep.latencies)
        attempted += rep.ops
        failures.extend(rep.failures)
        if first is None:
            first = rep
        elif rep.makespan != first.makespan:
            failures.append(
                f"{workload.name}: rep {len(walls) - 1} simulated "
                f"{rep.makespan!r} s, rep 0 {first.makespan!r} s — the "
                f"simulated clock must repeat")
        done = len(walls)
        if done >= (reps or 3) and (reps or time.perf_counter() >= deadline):
            break
    return {"first": first, "walls": walls, "latencies": latencies,
            "attempted": attempted, "failures": failures,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def _percentile_ms(latencies, share: float) -> float:
    ms = sorted(1e3 * s for s in latencies)
    return ms[min(len(ms) - 1, int(share * len(ms)))]


def timed_metrics(name: str, timed: dict, setup_walls: list):
    """The end-to-end metrics, and the timed-phase members of the per-layer
    list (simulated makespan; the fuzz and service rates and latencies).
    Every host-clock entry keeps its per-repetition samples, so compare.py
    can tell a difference it cannot resolve from one that is there."""
    first, walls = timed["first"], timed["walls"]
    wall = statistics.median(walls)
    events = first.counters["sim.events"]
    e2e = {
        "setup_s": {"value": statistics.median(setup_walls),
                    "samples": setup_walls},
        "wall_s": {"value": wall, "samples": walls},
        "events_per_s": {"value": events / wall,
                         "samples": [events / w for w in walls]},
        "peak_rss_mb": {"value": timed["peak_rss_mb"]},
    }
    layer = {"sim_makespan_s": {"value": first.makespan}}
    for key in OWN_WORKLOAD:
        layer[key] = {"value": 0.0}
    if name == "fuzz-functional":
        layer["runs_per_s"] = {"value": first.ops / wall,
                               "samples": [first.ops / w for w in walls]}
    if name == "svc-mixed":
        done = first.counters["service.jobs_done"]
        per_rep = timed["latencies"]
        pooled = [s for rep in per_rep for s in rep]
        layer["jobs_per_s"] = {"value": done / wall,
                               "samples": [done / w for w in walls]}
        for key, share in (("job_latency_p50_ms", 0.5),
                           ("job_latency_p90_ms", 0.9)):
            layer[key] = {"value": _percentile_ms(pooled, share),
                          "samples": [_percentile_ms(rep, share)
                                      for rep in per_rep]}
    return e2e, layer


def traced_phase(workload, smoke: bool, wall_s: float) -> dict:
    """One more repetition under cProfile, then the counters it published,
    the probes and the feature-tax pairs: the per-layer metrics."""
    spans = ledger_trace.Spans()
    rep, traced_wall, stats = ledger_trace.profiled(
        lambda: workload.rep(spans))
    layers, functions = ledger_trace.attribute(stats)
    ledger_trace.write_trace(
        os.path.join(OUT_DIR, f"trace-{workload.name}.json"),
        workload.name, layers, functions, spans)

    values = {"bench.trace_overhead_ratio": traced_wall / wall_s}
    for layer, sums in layers.items():
        values[f"{layer}.self_s"] = sums["self_s"]
        values[f"{layer}.calls"] = sums["calls"]

    c = rep.counters
    lookups = c["memory.cache_hits"] + c["memory.cache_misses"]
    values.update({k: v for k, v in c.items()
                   if not k.startswith("service.")})
    values.update({
        "sim.us_per_event": 1e6 * wall_s / c["sim.events"],
        "memory.cache_hit_ratio":
            c["memory.cache_hits"] / lookups if lookups else 0.0,
        "hardware.link_util_max":
            c["hardware.link_busy_max_s"] / rep.makespan,
        "service.pool_share":
            c["service.jobs_done_on_pool"] / c["service.jobs_done"]
            if c.get("service.jobs_done") else 0.0,
    })
    values.update(probes.run_probes(workload.name, smoke))
    values.update(probes.feature_tax(workload.name, smoke))
    return values


def load_expected() -> dict:
    try:
        with open(EXPECTED_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {"seed": None, "full": {}, "smoke": {}}


def compare_expected(name: str, seed: int, smoke: bool, layer: dict):
    """(identical?, differing names) against the pinned quantities; ``None``
    when this seed or mode has no pins."""
    expected = load_expected()
    pins = expected["smoke" if smoke else "full"].get(name)
    if seed != expected["seed"] or pins is None:
        return None, []
    differs = sorted(k for k in pins if layer[k]["value"] != pins[k])
    return not differs, differs


def run_workload(args) -> dict:
    """Measure one workload in this process; returns its result document."""
    name = args.workload
    workload = WORKLOADS[name](args.seed, args.smoke)
    traced = args.trace == 1
    reps, seconds = args.reps, args.seconds
    if reps is None and seconds is None:
        reps = 1 if args.smoke else 5
    if traced and reps is None:
        seconds /= 3          # the traced run only needs a reference wall

    setup_walls = measure_setup(name, args.seed, 1 if args.smoke else 5)
    WORKLOADS[name](args.seed, True).rep(ledger_trace.NoSpans())   # warm-up
    timed = timed_phase(workload, reps, seconds)
    e2e, layer = timed_metrics(name, timed, setup_walls)
    for key, entry in e2e.items():
        entry["unit"] = END_TO_END[key]["unit"]

    doc = {"workload": name, "seed": args.seed, "smoke": args.smoke,
           "reps": len(timed["walls"]), "attempted": timed["attempted"],
           "failed": len(timed["failures"]), "failures": timed["failures"],
           "fail_ratio": len(timed["failures"]) / timed["attempted"],
           "end_to_end": e2e}
    if traced:
        traced_values = traced_phase(workload, args.smoke,
                                     e2e["wall_s"]["value"])
        layer.update({k: {"value": v} for k, v in traced_values.items()})
        if set(layer) != set(PER_LAYER):
            sys.exit(f"ledger: per-layer names differ from BENCHMARK.json: "
                     f"{sorted(set(layer) ^ set(PER_LAYER))}")
        doc["per_layer"] = {k: {**layer[k], "unit": m["unit"]}
                            for k, m in PER_LAYER.items()}
        doc["sim_identical"], doc["sim_differs"] = compare_expected(
            name, args.seed, args.smoke, doc["per_layer"])
    return doc


def print_workload(doc: dict) -> None:
    print(f"== {doc['workload']}  seed {doc['seed']}  reps {doc['reps']}"
          f"{'  smoke' if doc['smoke'] else ''} ==")
    for key, entry in doc["end_to_end"].items():
        spread = ""
        if len(entry.get("samples", ())) > 1:
            q1, _, q3 = _quartiles(entry["samples"])
            spread = f"   q1 {q1:.6g}  q3 {q3:.6g}  n {len(entry['samples'])}"
        print(f"  {key:38s} {entry['value']:16.6g} {entry['unit']}{spread}")
    print(f"  {'fail_ratio':38s} {doc['fail_ratio']:16.6g} ratio   "
          f"({doc['failed']} of {doc['attempted']} ops)")
    for line in doc["failures"]:
        print(f"  FAILED {line}")
    for key, entry in doc.get("per_layer", {}).items():
        print(f"  {key:38s} {entry['value']:16.6g} {entry['unit']}")
    if "sim_identical" in doc:
        print(f"  sim_identical: {json.dumps(doc['sim_identical'])}"
              + (f"  differs: {', '.join(doc['sim_differs'])}"
                 if doc["sim_differs"] else ""))


def driver_line(doc: dict, traced: bool) -> str:
    """The benchmark contract's last line of standard output."""
    source = doc["per_layer"] if traced else doc["end_to_end"]
    return json.dumps({
        "correct": doc["failed"] == 0, "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in source.items()}})


# ----------------------------------------------------------------------
# All five workloads
# ----------------------------------------------------------------------

def run_all(args) -> int:
    """One child per workload, one after the other, so peak RSS and import
    state are per workload and never more than ``nproc`` processes are
    busy; then the joint report."""
    host = host_block()
    print(f"host: {json.dumps(host)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    docs = {}
    for name in WORKLOADS:
        part = os.path.join(OUT_DIR, f"part-{name}.json")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--trace", "1", "--out", part]
        if args.reps is not None:
            cmd += ["--reps", str(args.reps)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        if args.smoke:
            cmd.append("--smoke")
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if child.returncode != 0:
            print(child.stdout)
            print(f"ledger: workload {name} exited {child.returncode}")
            return 1
        with open(part) as fh:
            docs[name] = json.load(fh)
        os.remove(part)
        print_workload(docs[name])

    identical = [d["sim_identical"] for d in docs.values()]
    differs = [f"{n}:{k}" for n, d in docs.items() for k in d["sim_differs"]]
    verdict = None if None in identical else all(identical)
    print(f"sim_identical: {json.dumps(verdict)}"
          + (f"  differs: {', '.join(differs)}" if differs else ""))
    failed = sum(d["failed"] for d in docs.values())
    print(f"fail_ratio: {failed} of "
          f"{sum(d['attempted'] for d in docs.values())} ops failed")

    out = args.out or os.path.join(
        OUT_DIR, "results-smoke.json" if args.smoke else "results.json")
    with open(out, "w") as fh:
        json.dump({"schema": SCHEMA, "host": host, "seed": args.seed,
                   "smoke": args.smoke, "sim_identical": verdict,
                   "workloads": docs}, fh, indent=1)
        fh.write("\n")
    print(f"results: {os.path.relpath(out)}   traces: "
          f"{os.path.relpath(OUT_DIR)}/trace-<workload>.json")
    if args.write_expected:
        write_expected(docs, args)
    return 0


def write_expected(docs: dict, args) -> None:
    """Pin this run's exactly-repeating quantities as the expectation."""
    expected = load_expected()
    expected["seed"] = args.seed
    expected["smoke" if args.smoke else "full"] = {
        name: {k: v["value"] for k, v in doc["per_layer"].items()
               if is_exact(k, name)}
        for name, doc in docs.items()}
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"expected: {os.path.relpath(EXPECTED_PATH)} rewritten")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="measure this one workload in this process "
                             "(default: all five, one child each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--reps", type=int, default=None,
                        help="timed repetitions (default 5; 1 with --smoke)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="repeat until this much time has passed "
                             "instead of a fixed --reps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 adds the traced run (after "
                             "a third of --seconds of timed repetitions) "
                             "and ends with the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload about 20x smaller, one rep")
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--write-expected", action="store_true",
                        help="rewrite expected.json from this run")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload is None:
        return run_all(args)
    if args.setup_only:
        WORKLOADS[args.workload](args.seed, False)
        WORKLOADS[args.workload](args.seed, True).rep(ledger_trace.NoSpans())
        return 0
    host = host_block()
    doc = run_workload(args)
    doc["host"] = host
    print_workload(doc)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    print(driver_line(doc, args.trace == 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
