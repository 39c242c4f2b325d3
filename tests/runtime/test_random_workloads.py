"""Property test: the runtime is sequentially consistent end-to-end.

Hypothesis draws whole fuzzed workloads from :mod:`repro.dagfuzz` —
deep chains, wide fans, ragged tilings, inout/unused clauses, nested
decomposing tasks and mid-stream taskwaits — plus random runtime
configurations (cache policy x scheduler x datamove flags x machine),
through the strategies in ``fuzz_strategies.py`` beside this file.
Executing the workload through the full stack — graph, scheduler,
coherence, caches, transfers — must produce exactly the state a
sequential interpretation of the submission order produces.  This is the
strongest single statement about the reproduction's correctness: any
coherence, ordering or scheduling bug shows up as wrong numbers.

Hypothesis shrinks the *seed and profile* (a workload is a pure function
of both, see ``repro.dagfuzz.generator``); structural minimization of a
failing workload is the dagfuzz shrinker's job — the assertion message
carries the one-line replay command for it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dagfuzz import check_workload, generate
from repro.dagfuzz.cli import replay_command
from repro.runtime import RuntimeConfig
from repro.runtime.config import SCHEDULERS
from repro.sim import Environment  # noqa: F401  (re-exported for helpers)

from .fuzz_strategies import (
    machine_names,
    runtime_config_kwargs,
    workload_specs,
)


# Derandomized and database-free: tier-1 draws the same 40 examples on
# every run and never replays a failure from .hypothesis/examples/.  The
# open-ended search belongs to the dagfuzz CLI sweeps (CI fuzz-smoke).
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(spec=workload_specs(), cfg=runtime_config_kwargs(),
       machine=machine_names())
def test_runtime_matches_sequential_reference(spec, cfg, machine):
    res = check_workload(spec, machine=machine,
                         config=RuntimeConfig(functional=True, **cfg))
    replay = replay_command(spec.seed, spec.profile, cfg["scheduler"],
                            cfg["cache_policy"], machine, "off")
    assert res.ok, (f"{res.describe()} under {cfg} on {machine}; "
                    f"shrink it with: {replay}")


@pytest.mark.parametrize("machine", ["gpu1", "gpu2", "gpu4", "cluster2"])
@pytest.mark.parametrize("seed", [116, 119, 126, 158, 176, 206, 212, 269])
def test_known_wb_elision_nocache_nested_crash(seed, machine):
    """ROADMAP item 1, fixed: ``wb_elision`` + ``nocache`` + nested tasks
    raised RegionLostError on these seeds under every scheduler (python -m
    repro.dagfuzz --replay 269 --profile nested --schedulers cp
    --cache-policies nocache --machines gpu2 --datamove on).  The liveness
    tracker retired a decomposing parent at its own commit, before its
    children read; the parent now holds its claim until it finishes."""
    config = RuntimeConfig(functional=True,
                           scheduler=SCHEDULERS[seed % len(SCHEDULERS)],
                           cache_policy="nocache", wb_elision=True,
                           cost_aware_eviction=True, presend_depth=1)
    res = check_workload(generate(seed, "nested"), machine=machine,
                         config=config)
    assert res.ok, res.describe()


# ---------------------------------------------------------------------------
# Adaptive-tier schedulers never change numerics
# ---------------------------------------------------------------------------

@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(nt=st.integers(2, 5), bs=st.sampled_from([8, 16]),
       machine=st.sampled_from(["gpu2", "cluster2"]))
def test_adaptive_tier_bit_identical_to_default(nt, bs, machine):
    """Whatever the problem size, the ws / cp / adaptive policies execute
    the same task graph as the default scheduler and must produce the
    *bit-identical* float32 factorization — reordering ready tasks can
    change the timeline, never the numbers."""
    from repro.apps import cholesky
    from repro.hardware import build_gpu_cluster, build_multi_gpu_node

    size = cholesky.CholeskySize(n=nt * bs, bs=bs)

    def run(policy):
        env = Environment()
        if machine == "cluster2":
            m = build_gpu_cluster(env, num_nodes=2)
        else:
            m = build_multi_gpu_node(env, num_gpus=2)
        cfg = RuntimeConfig(functional=True, scheduler=policy)
        return cholesky.run_ompss(m, size, config=cfg, verify=True)

    reference = run("default").output["a"]
    for policy in ("ws", "cp", "adaptive"):
        got = run(policy).output["a"]
        assert np.array_equal(got, reference), \
            f"{policy} diverged from default at nt={nt} bs={bs} {machine}"
