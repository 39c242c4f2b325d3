"""Sanitizer x fuzzing: clean fuzzed DAGs stay clean, planted lies don't.

Two directions, both exact: well-annotated workloads from the ``clean``
profile must produce *zero* findings under every scheduler (no false
positives at fuzzing scale), and each deliberate mis-annotation mode
of :func:`misannotate` must produce *exactly* its planted finding (no
false negatives, no collateral noise — the planted op lives on a fresh
private object).
"""

import random

import pytest

from repro.dagfuzz import generate
from repro.dagfuzz.runner import run_workload
from repro.dagfuzz.spec import OpSpec, WorkloadSpec
from repro.runtime import RuntimeConfig
from repro.runtime.config import SCHEDULERS
from repro.sanitizer import Sanitizer

_CFG = RuntimeConfig(functional=True)

#: mode -> the sanitizer finding kind it must produce.
MISANNOTATIONS = {
    "out_as_in": "under-declared-write",
    "unused_in": "unused-clause",
}


def misannotate(spec: WorkloadSpec, mode: str) -> WorkloadSpec:
    """Append one deliberately mis-annotated op to ``spec``.

    The planted op gets a *fresh private object* (one region nobody else
    touches), so the expected sanitizer findings are exactly the planted
    ones — no incidental races with the generated workload.  The runner
    applies ``mode`` to the last top-level op via ``spec.mis``.
    """
    if mode not in MISANNOTATIONS:
        raise ValueError(f"unknown misannotation {mode!r}; "
                         f"expected one of {sorted(MISANNOTATIONS)}")
    fresh = spec.num_regions                     # id of the new region
    rng = random.Random(spec.seed or 0)
    if mode == "out_as_in":
        # Body writes its output, clause says input: under-declared-write.
        op = OpSpec(out=fresh, ins=(), seed=rng.randrange(1000),
                    device="smp", cost=1e-6)
    else:                                        # unused_in
        # Clause declares a second fresh input the body never reads.
        op = OpSpec(out=fresh, ins=(), unused=(fresh + 1,),
                    seed=rng.randrange(1000), device="smp", cost=1e-6)
    extra_regions = 2 if mode == "unused_in" else 1
    return spec.replaced(
        num_objects=spec.num_objects + 1,
        regions_per_object=spec.regions_per_object + (extra_regions,),
        region_lens=spec.region_lens + (8,),
        ops=spec.ops + (op,),
        mis=mode if mode == "out_as_in" else None,
    )


def _findings(spec, config=_CFG, machine="gpu2"):
    san = Sanitizer()
    run_workload(spec, machine=machine, config=config, sanitizer=san)
    return {(f.kind, f.task, f.obj) for f in san.findings()}


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_clean_profile_has_zero_findings(scheduler):
    cfg = RuntimeConfig(functional=True, scheduler=scheduler)
    for seed in range(5):
        spec = generate(seed, "clean")
        assert _findings(spec, config=cfg) == set(), \
            f"false positive on clean seed {seed} under {scheduler}"


def test_clean_profile_is_clean_on_cluster():
    for seed in range(3):
        spec = generate(seed, "clean")
        assert _findings(spec, machine="cluster2") == set()


@pytest.mark.parametrize("mode,kind", sorted(MISANNOTATIONS.items()))
def test_misannotation_yields_exactly_the_planted_finding(mode, kind):
    for seed in range(3):
        spec = misannotate(generate(seed, "clean"), mode)
        planted_task = f"t{len(spec.ops) - 1}"
        planted_obj = f"o{spec.num_objects - 1}"
        assert _findings(spec) == {(kind, planted_task, planted_obj)}, \
            f"seed {seed} mode {mode}"


def test_misannotate_rejects_unknown_mode():
    with pytest.raises(ValueError):
        misannotate(generate(0, "clean"), "no-such-mode")
