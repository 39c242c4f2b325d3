"""The differential oracle: full stack == serial interpretation, bitwise.

A fixed seed matrix (cheap, deterministic) covers every scheduler, every
cache policy, multi-GPU and cluster machines, and the armed datamove
layer.  ``tests/runtime/test_random_workloads.py`` layers Hypothesis on
top of the same strategies; this file is the always-on floor.
"""

import numpy as np
import pytest

from repro.dagfuzz import (
    PROFILES,
    check_workload,
    generate,
    run_workload,
    sequential_reference,
)
from repro.runtime import RuntimeConfig
from repro.runtime.config import SCHEDULERS

_FUNC = dict(functional=True)


def test_sequential_reference_is_pure():
    spec = generate(11, "irregular")
    value = sequential_reference(spec)
    assert value == sequential_reference(spec)
    assert set(value) == {info.rid for info in spec.regions()}


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_every_scheduler_matches_oracle(scheduler):
    for seed in range(4):
        spec = generate(seed, "default")
        cfg = RuntimeConfig(**_FUNC, scheduler=scheduler)
        res = check_workload(spec, machine="gpu2", config=cfg)
        assert res.ok, f"seed {seed} under {scheduler}: {res.describe()}"


@pytest.mark.parametrize("cache", ["nocache", "wt", "wb"])
def test_every_cache_policy_matches_oracle(cache):
    for seed in range(4):
        spec = generate(seed, "irregular")
        cfg = RuntimeConfig(**_FUNC, cache_policy=cache)
        res = check_workload(spec, machine="gpu2", config=cfg)
        assert res.ok, f"seed {seed} under {cache}: {res.describe()}"


@pytest.mark.parametrize("machine", ["gpu1", "gpu4", "cluster2"])
@pytest.mark.parametrize("profile", ["deep", "wide", "nested"])
def test_profiles_match_oracle_across_machines(machine, profile):
    for seed in range(3):
        spec = generate(seed, profile)
        res = check_workload(spec, machine=machine,
                             config=RuntimeConfig(**_FUNC))
        assert res.ok, (f"{profile} seed {seed} on {machine}: "
                        f"{res.describe()}")


def test_datamove_layer_matches_oracle():
    cfg = RuntimeConfig(**_FUNC, scheduler="affinity", cache_policy="wb",
                        wb_elision=True, cost_aware_eviction=True,
                        presend_depth=1)
    for seed in range(4):
        spec = generate(seed, "default")
        res = check_workload(spec, machine="cluster2", config=cfg)
        assert res.ok, f"seed {seed} datamove: {res.describe()}"


def test_run_workload_returns_oracle_buffers():
    spec = generate(7, "default")
    outputs, makespan = run_workload(spec)
    assert makespan > 0.0
    value = sequential_reference(spec)
    for rid, arr in outputs.items():
        assert arr.dtype == np.float32
        assert np.array_equal(arr, np.full(arr.shape, np.float32(value[rid])))


def test_run_workload_rejects_perf_mode():
    with pytest.raises(ValueError):
        run_workload(generate(0, "default"),
                     config=RuntimeConfig(functional=False))


def test_all_profiles_have_a_passing_floor():
    for profile in PROFILES:
        res = check_workload(generate(0, profile))
        assert res.ok, f"{profile}: {res.describe()}"
