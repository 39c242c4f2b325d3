"""The data-movement optimisation layer: flags, liveness, elision,
prestage lookahead, cost-aware eviction (src/repro/runtime/datamove.py).

The layer's cardinal rule — all flags off means the runtime constructs no
DataMover and the event stream is bit-identical — is pinned by the golden
makespans (tests/bench/test_golden_makespan.py); here we pin everything the
flags *add*.
"""

import pytest

from repro.cuda import KernelSpec
from repro.hardware import build_gpu_cluster, build_multi_gpu_node
from repro.runtime import Access, Direction, Runtime, RuntimeConfig, Task
from repro.runtime.datamove import DataMover, LivenessTracker
from repro.sim import Environment


def quick_kernel(name="k", cost=1e-6):
    return KernelSpec(name=name, cost=lambda spec: cost, func=None)


def make_rt(machine="gpu1", **cfg):
    env = Environment()
    if machine == "gpu1":
        m = build_multi_gpu_node(env, num_gpus=1)
    elif machine == "gpu2":
        m = build_multi_gpu_node(env, num_gpus=2)
    else:
        m = build_gpu_cluster(env, num_nodes=int(machine[7:]))
    return Runtime(m, RuntimeConfig(functional=False, kernel_jitter=0,
                                    task_overhead=0, **cfg))


def run_tasks(rt, tasks):
    def main():
        for t in tasks:
            rt.submit(t)
        yield from rt.taskwait(noflush=True)

    rt.run_main(main())


def gpu_task(rt, name, *accesses, cost=1e-6):
    return Task(name=name, device="cuda", kernel=quick_kernel(name, cost),
                accesses=tuple(accesses))


# ---------------------------------------------------------------------------
# Configuration flags
# ---------------------------------------------------------------------------

def test_all_flags_default_off():
    cfg = RuntimeConfig()
    assert not cfg.wb_elision
    assert cfg.presend_depth == 0
    assert not cfg.cost_aware_eviction


@pytest.mark.parametrize("flag", [
    dict(wb_elision=True), dict(presend_depth=2),
    dict(cost_aware_eviction=True),
])
def test_any_flag_enables_datamove(flag):
    """A ``DataMover`` exists exactly when a flag needs version liveness.
    ``presend_depth`` does not: the communication thread reads it from the
    config, so the coherence paths stay on their flags-off branches."""
    rt = make_rt("cluster2", **flag)
    assert (rt.datamove is not None) == ("presend_depth" not in flag)
    assert rt.coherence.datamove is rt.datamove


def test_describe_mentions_active_mechanisms():
    label = RuntimeConfig(wb_elision=True, presend_depth=3,
                          cost_aware_eviction=True).describe()
    for token in ("elide", "pd3", "cae"):
        assert token in label
    for token in ("elide", "pd", "cae"):
        assert token not in RuntimeConfig().describe()


def test_flag_validation():
    with pytest.raises(ValueError):
        RuntimeConfig(presend_depth=-1)


def test_runtime_builds_no_datamover_by_default():
    rt = make_rt("gpu1")
    assert rt.datamove is None
    assert rt.coherence.datamove is None


def test_runtime_wires_datamover_and_cost_fn():
    rt = make_rt("gpu1", wb_elision=True, cost_aware_eviction=True)
    assert isinstance(rt.datamove, DataMover)
    assert isinstance(rt.datamove.liveness, LivenessTracker)
    for cache in rt.all_caches():
        assert cache.victim_cost_fn is not None


# ---------------------------------------------------------------------------
# Version-aware liveness
# ---------------------------------------------------------------------------

def _region(rt, name="x", nbytes=4096):
    return rt.register_array(name, nbytes // 4).whole


def _task(name, *accesses, copy_deps=True, copies=(), subtasks=None):
    return Task(name=name, device="cuda", kernel=quick_kernel(name),
                accesses=tuple(accesses), copy_deps=copy_deps,
                copies=tuple(copies), subtasks=subtasks)


def test_version_dead_only_after_its_readers_finish():
    rt = make_rt("gpu1")
    r = _region(rt)
    lt = LivenessTracker()
    init = _task("init", Access(r, Direction.OUT))
    reader = _task("reader", Access(r, Direction.IN))
    over = _task("over", Access(r, Direction.OUT))
    for t in (init, reader, over):
        lt.task_submitted(t)
    lt.task_committed(init)
    # The committed version still feeds `reader`.
    assert not lt.version_is_dead(r)
    lt.task_finished(reader)
    # Now only the pure overwriter remains: the version is unobservable.
    assert lt.version_is_dead(r)
    lt.task_committed(over)
    assert not lt.version_is_dead(r)


def test_future_readers_do_not_pin_old_versions():
    """A reader submitted *after* the next overwriter consumes a future
    version — it must not keep the current one alive.  This is the
    pre-submitted-iterations case (STREAM queues every time-step up
    front); region-level reader counts would never elide anything."""
    rt = make_rt("gpu1")
    r = _region(rt)
    lt = LivenessTracker()
    init = _task("init", Access(r, Direction.OUT))
    over = _task("over", Access(r, Direction.OUT))
    future_reader = _task("fr", Access(r, Direction.IN))
    for t in (init, over, future_reader):
        lt.task_submitted(t)
    lt.task_committed(init)
    assert lt.version_is_dead(r)


def test_own_commit_does_not_kill_own_version():
    """A task's pure-output access must stop counting as a pending
    overwriter once its own commit publishes, or every freshly produced
    version would be judged dead by its producer's own entry."""
    rt = make_rt("gpu1")
    r = _region(rt)
    lt = LivenessTracker()
    init = _task("init", Access(r, Direction.OUT))
    lt.task_submitted(init)
    lt.task_committed(init)
    assert not lt.version_is_dead(r)


def test_inout_overwriter_keeps_version_alive():
    rt = make_rt("gpu1")
    r = _region(rt)
    lt = LivenessTracker()
    init = _task("init", Access(r, Direction.OUT))
    accum = _task("accum", Access(r, Direction.INOUT))
    lt.task_submitted(init)
    lt.task_submitted(accum)
    lt.task_committed(init)
    # The next writer reads the version it overwrites: not dead.
    assert not lt.version_is_dead(r)


def test_dependence_only_writer_cannot_cover_a_discard():
    """A writer without copy semantics never reaches commit_outputs, so it
    publishes no replacement version — eliding against it would lose the
    only path back to coherent data."""
    rt = make_rt("gpu1")
    r = _region(rt)
    lt = LivenessTracker()
    init = _task("init", Access(r, Direction.OUT))
    dep_only = _task("dep", Access(r, Direction.OUT), copy_deps=False)
    lt.task_submitted(init)
    lt.task_submitted(dep_only)
    lt.task_committed(init)
    assert not lt.version_is_dead(r)


def test_commit_then_finish_is_idempotent():
    rt = make_rt("gpu1")
    r = _region(rt)
    lt = LivenessTracker()
    init = _task("init", Access(r, Direction.OUT))
    over = _task("over", Access(r, Direction.OUT))
    lt.task_submitted(init)
    lt.task_submitted(over)
    lt.task_committed(init)
    lt.task_finished(init)          # the normal lifecycle calls both
    assert lt.version_is_dead(r)    # over's entry survives the double call


def test_decomposing_parent_stays_live_until_it_finishes():
    """A parent commits *before* its children are submitted; between that
    commit and their reads the only later task the tracker knows is the
    sibling overwriter.  The parent's claim must cover the gap (the
    wb_elision + nocache + nested RegionLostError, ROADMAP item 1)."""
    rt = make_rt("gpu1")
    r = _region(rt)
    lt = LivenessTracker()
    init = _task("init", Access(r, Direction.OUT))
    parent = _task("parent", Access(r, Direction.INOUT),
                   subtasks=lambda: [])
    over = _task("over", Access(r, Direction.OUT))
    for t in (init, parent, over):
        lt.task_submitted(t)
    lt.task_committed(init)
    lt.task_committed(parent)       # children (unregistered) run now
    assert not lt.version_is_dead(r)
    lt.task_finished(parent)        # children done: the claim ends
    assert lt.version_is_dead(r)


def test_output_only_parent_is_not_a_pure_overwriter():
    """Children read what the parent's own commit (or an earlier child)
    published, so a decomposing parent never overwrites blindly — even
    declared OUT, its still-live write entry must not make the version it
    just published look dead."""
    rt = make_rt("gpu1")
    r = _region(rt)
    lt = LivenessTracker()
    parent = _task("parent", Access(r, Direction.OUT), subtasks=lambda: [])
    lt.task_submitted(parent)
    assert not lt.version_is_dead(r)
    lt.task_committed(parent)
    assert not lt.version_is_dead(r)


# ---------------------------------------------------------------------------
# Write-back elision end to end
# ---------------------------------------------------------------------------

def test_wt_elides_dead_write_through():
    rt = make_rt("gpu1", cache_policy="wt", wb_elision=True)
    r = _region(rt)
    t1 = gpu_task(rt, "t1", Access(r, Direction.OUT))
    t2 = gpu_task(rt, "t2", Access(r, Direction.OUT))
    run_tasks(rt, [t1, t2])
    m = rt.metrics
    assert m.value("datamove.writebacks_elided") == 1
    assert m.value("datamove.bytes_elided") == r.nbytes
    # The *final* version still propagated (write-through semantics for
    # the last writer, whose version nobody overwrites).
    assert rt.master_host in rt.directory.holders(r)


def test_elision_respects_live_readers():
    rt = make_rt("gpu1", cache_policy="wt", wb_elision=True)
    r = _region(rt)
    tasks = [
        gpu_task(rt, "t1", Access(r, Direction.OUT)),
        gpu_task(rt, "t2", Access(r, Direction.IN)),
        gpu_task(rt, "t3", Access(r, Direction.OUT)),
    ]
    run_tasks(rt, tasks)
    # t1's version feeds t2 — only possibly-later elisions may happen, and
    # t3's version has no overwriter at all.
    assert rt.metrics.value("datamove.writebacks_elided") == 0


def test_nocache_discard_is_recorded_in_directory():
    rt = make_rt("gpu1", cache_policy="nocache", wb_elision=True)
    r = _region(rt)
    t1 = gpu_task(rt, "t1", Access(r, Direction.OUT))
    t2 = gpu_task(rt, "t2", Access(r, Direction.OUT))

    seen = []

    def main():
        rt.submit(t1)
        rt.submit(t2)
        yield from rt.taskwait(noflush=True)
        seen.append(rt.directory.peek(r))

    rt.run_main(main())
    assert rt.metrics.value("datamove.writebacks_elided") == 1
    ent = seen[0]
    # t2's own commit wrote the region back (no overwriter behind it),
    # which clears the discard mark and republishes a host copy.
    assert ent is not None and not ent.discarded
    assert rt.master_host in rt.directory.holders(r)


def test_output_only_parent_keeps_its_version_for_its_children():
    """End to end: the parent publishes, the no-cache commit must write
    the version back (not discard it) because the child reads it."""
    import numpy as np
    rt = Runtime(build_multi_gpu_node(Environment(), num_gpus=1),
                 RuntimeConfig(cache_policy="nocache", wb_elision=True))
    r = _region(rt)

    def fill(buf):
        buf[:] = 7.0

    def bump(buf):
        buf += 1.0

    parent = Task(
        name="parent", device="cuda", args=(r,),
        kernel=KernelSpec(name="fill", cost=lambda spec: 1e-6, func=fill),
        accesses=(Access(r, Direction.OUT),),
        subtasks=lambda: [Task(name="child", device="smp", smp_cost=1e-6,
                               func=bump, args=(r,),
                               accesses=(Access(r, Direction.INOUT),))])

    def main():
        rt.submit(parent)
        yield from rt.taskwait()

    rt.run_main(main())
    assert np.all(rt.read_array(r.obj) == 8.0)


def test_flags_off_runs_have_no_datamove_counters():
    rt = make_rt("gpu1", cache_policy="wt")
    r = _region(rt)
    run_tasks(rt, [gpu_task(rt, "t1", Access(r, Direction.OUT)),
                   gpu_task(rt, "t2", Access(r, Direction.OUT))])
    assert rt.metrics.value("datamove.writebacks_elided", 0) == 0


# ---------------------------------------------------------------------------
# Presend pipelining (prestage lookahead)
# ---------------------------------------------------------------------------

def test_prestage_previews_disjoint_global_queue_slices():
    """The scheduler core previews a *partitioned* slice of the shared
    queue per node proxy: each proxy sees a disjoint subset, so
    no region is speculatively prestaged to two nodes (naive previewing
    was measured to congest the master NIC)."""
    from repro.runtime.scheduler import make_scheduler
    sched = make_scheduler("bf", lambda *a: None, None)

    class W:
        kind = "node"
        space = None

        def __init__(self, node_index):
            self.node_index = node_index

        def accepts(self, task):
            return True

    w0, w1 = W(0), W(1)
    sched.register_worker(w0)
    sched.register_worker(w1)
    r_kernel = quick_kernel()
    for i in range(6):
        sched.submit(Task(name=f"t{i}", device="cuda", kernel=r_kernel,
                          accesses=()))
    p0 = sched.peek_for(w0, 4)
    p1 = sched.peek_for(w1, 4)
    assert p0 and p1
    # Disjoint slices covering the queue prefix, in readiness order.
    assert {t.tid for t in p0}.isdisjoint(t.tid for t in p1)
    assert [t.tid for t in p0] == sorted(t.tid for t in p0)
    # Non-node workers still report no lookahead (only proxies prestage).
    class S(W):
        kind = "smp"
    assert sched.peek_for(S(0), 4) == []


def test_prestage_moves_inputs_ahead_of_dispatch():
    from repro.apps import matmul
    from repro.bench.harness import fresh_cluster
    size = matmul.MatmulSize(n=256, bs=64)
    base = dict(functional=False, cache_policy="wb", scheduler="affinity",
                slave_to_slave=False, presend=0)
    plain = matmul.run_ompss(fresh_cluster(4), size,
                             config=RuntimeConfig(**base), init="seq")
    deep = matmul.run_ompss(fresh_cluster(4), size,
                            config=RuntimeConfig(**base, presend_depth=4),
                            init="seq")
    prestages = sum(v for k, v in deep.metrics.items()
                    if k.endswith(".prestages"))
    assert prestages > 0
    assert sum(v for k, v in plain.metrics.items()
               if k.endswith(".prestages")) == 0
    # Overlapping the staging with remote compute must not slow us down.
    assert deep.makespan <= plain.makespan


# ---------------------------------------------------------------------------
# Cost-aware eviction
# ---------------------------------------------------------------------------

def test_cost_fn_orders_dirty_above_clean_and_dead_at_zero():
    rt = make_rt("gpu1", wb_elision=True, cost_aware_eviction=True)
    r_clean = _region(rt, "clean")
    r_dirty = _region(rt, "dirty")
    r_dead = _region(rt, "dead")
    cache = rt.cache_of(rt.gpu_space(0, 0))
    for r in (r_clean, r_dirty, r_dead):
        cache.insert(r)
    cache.mark_dirty(r_dirty)
    cache.mark_dirty(r_dead)
    lt = rt.datamove.liveness
    # Make r_dead's version dead: a live pure overwriter, no readers.
    over = _task("over", Access(r_dead, Direction.OUT))
    lt.task_submitted(over)
    cost = cache.victim_cost_fn
    assert cost(cache.get(r_dead)) == 0.0
    assert cost(cache.get(r_dirty)) > cost(cache.get(r_clean)) > 0.0


def test_determinism_with_all_flags_on():
    """Same config, same machine, two runs: identical simulated time and
    identical datamove activity (the layer adds no nondeterminism)."""
    from repro.apps import stream
    from repro.bench.harness import fresh_multi_gpu
    size = stream.StreamSize(n=4096, bsize=256, ntimes=3)
    cfg = RuntimeConfig(functional=False, cache_policy="wb",
                        scheduler="affinity", wb_elision=True,
                        cost_aware_eviction=True)

    def once():
        res = stream.run_ompss(fresh_multi_gpu(2), size, config=cfg)
        return (res.makespan,
                res.metrics.get("datamove.writebacks_elided", 0))

    assert once() == once()


def test_functional_outputs_identical_with_flags_on():
    """Elision changes *whether* dead bytes move, never *which* bytes a
    task sees: functional results must match the flags-off run exactly."""
    import numpy as np
    from repro.apps import stream
    from repro.bench.harness import fresh_multi_gpu
    size = stream.StreamSize(n=1024, bsize=128, ntimes=2)
    base = dict(functional=True, cache_policy="wb", scheduler="affinity")
    off = stream.run_ompss(fresh_multi_gpu(2), size,
                           config=RuntimeConfig(**base), verify=True)
    on = stream.run_ompss(
        fresh_multi_gpu(2), size,
        config=RuntimeConfig(**base, wb_elision=True,
                             cost_aware_eviction=True), verify=True)
    assert set(off.output) == set(on.output)
    for key in off.output:
        assert np.array_equal(off.output[key], on.output[key]), key


@pytest.mark.parametrize(
    "policy", ["bf", "default", "affinity", "ws", "cp", "adaptive"])
def test_prestage_fires_under_every_policy(policy):
    """presend_depth > 0 must produce prestage traffic whatever the
    scheduler: every policy's ``peek_for`` (local-queue previews composed
    with partitioned global-queue slices) has to expose lookahead to the
    cluster master's prestage pump."""
    from repro.apps import matmul
    from repro.bench.harness import fresh_cluster
    size = matmul.MatmulSize(n=256, bs=64)
    cfg = RuntimeConfig(functional=False, cache_policy="wb",
                        scheduler=policy, presend=2, presend_depth=4,
                        slave_to_slave=False)
    res = matmul.run_ompss(fresh_cluster(4), size, config=cfg, init="seq")
    prestages = sum(v for k, v in res.metrics.items()
                    if k.startswith("cluster.node")
                    and k.endswith(".prestages"))
    assert prestages > 0


def test_scheduler_package_knows_nothing_of_data_movement():
    """Design budget: scheduling does not steer data movement, and only
    the metrics package reads the registry's private tables."""
    import re
    from pathlib import Path

    import repro
    src = Path(repro.__file__).parent
    coupling = re.compile(r"attach_runtime|\b_rt\b|\.datamove\b|CachePolicy")
    for path in sorted((src / "runtime" / "scheduler").glob("*.py")):
        hits = [ln for ln in path.read_text().splitlines()
                if coupling.search(ln)]
        assert not hits, (path.name, hits)
    private = re.compile(r"\._(counters|gauges)\b")
    for path in sorted(src.rglob("*.py")):
        if "metrics" in path.relative_to(src).parts[:1]:
            continue
        hits = [ln for ln in path.read_text().splitlines()
                if private.search(ln)]
        assert not hits, (str(path.relative_to(src)), hits)


def test_commit_write_policy_is_fixed_for_the_run():
    """Design budget: commits follow the configured ``cache_policy`` for
    the whole run, as in the paper — no flag, override or monitor switches
    it mid-run (docs/DATAMOVE.md, "No run-time write-mode switch")."""
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    gone = re.compile(
        r"adaptive_datamove|set_write_mode|write_mode|note_commit|BUSY_HIGH")
    for top in ("src/repro", "benchmarks/perf", ".github"):
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in (".py", ".yml", ".json"):
                continue
            hits = [ln for ln in path.read_text().splitlines()
                    if gone.search(ln)]
            assert not hits, (str(path.relative_to(root)), hits)
