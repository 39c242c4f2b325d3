"""Chaos x fuzzing: fuzzed DAGs recover bit-identically from faults.

The structured apps in this suite exercise regular graphs; the fuzzed
workloads add ragged fan-in, inout chains, nested scopes and taskwaits.
Under a GPU loss or a dropped active message, every scheduling policy
must still land every region on exactly the sequential oracle's bytes —
recovery re-executes and re-routes, it never changes numerics.
"""

import pytest

from repro.dagfuzz import check_workload, generate
from repro.faults import FaultEvent, FaultPlan
from repro.runtime.config import SCHEDULERS, RuntimeConfig

#: chaos baseline: write-back caches so recovery must re-resolve dirty
#: replicas, plus a little timing noise to perturb schedules.
_BASE = dict(functional=True, cache_policy="wb", kernel_jitter=0.02,
             task_overhead=5e-6)

#: (profile, seed) pairs covering depth, width, clause mix and nesting.
FUZZ_CASES = (("default", 0), ("deep", 1), ("irregular", 2), ("nested", 3))


def _assert_oracle(spec, config, machine):
    res = check_workload(spec, machine=machine, config=config)
    assert res.ok, (f"{res.describe()} under {config.scheduler} with "
                    f"faults on {machine} ({spec.profile} seed {spec.seed})")


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("profile,seed", FUZZ_CASES)
def test_gpu_loss_recovery_matches_oracle(scheduler, profile, seed):
    spec = generate(seed, profile)
    plan = FaultPlan(events=(
        FaultEvent(kind="gpu_loss", node=0, gpu=1, at=2e-5),
    ))
    cfg = RuntimeConfig(**_BASE, scheduler=scheduler, fault_plan=plan)
    _assert_oracle(spec, cfg, "gpu2")


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("profile,seed", FUZZ_CASES)
def test_am_drop_recovery_matches_oracle(scheduler, profile, seed):
    spec = generate(seed, profile)
    plan = FaultPlan(events=(
        FaultEvent(kind="am_drop", nth=2),
    ))
    cfg = RuntimeConfig(**_BASE, scheduler=scheduler, fault_plan=plan)
    _assert_oracle(spec, cfg, "cluster2")


def test_combined_faults_on_datamove_stack():
    """One compound scenario: GPU loss + AM drop with the armed datamove
    layer (elision, cost-aware eviction, presend) on a cluster."""
    spec = generate(5, "default")
    plan = FaultPlan(events=(
        FaultEvent(kind="gpu_loss", node=1, gpu=0, at=3e-5),
        FaultEvent(kind="am_drop", nth=3),
    ))
    cfg = RuntimeConfig(**_BASE, scheduler="affinity", fault_plan=plan,
                        wb_elision=True, cost_aware_eviction=True,
                        presend_depth=1)
    _assert_oracle(spec, cfg, "cluster2")
