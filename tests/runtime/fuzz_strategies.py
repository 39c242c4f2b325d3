"""Hypothesis strategies over fuzzed workloads and runtime configs.

The property suites draw whole :class:`WorkloadSpec` objects (via the
seed-deterministic generator, so Hypothesis shrinks the *seed* and the
dagfuzz shrinker handles structure) plus configurations spanning every
scheduler, cache policy and the datamove flag set.  They live with the
tests because Hypothesis is a test-only dependency.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.dagfuzz import MACHINES, PROFILES, generate
from repro.runtime.config import SCHEDULERS

__all__ = ["workload_specs", "runtime_config_kwargs", "machine_names"]

#: profiles the property tests cycle through (all but the sanitizer
#: baseline — "clean" only restricts the mix).
PROPERTY_PROFILES = tuple(n for n in PROFILES if n != "clean")


def workload_specs(profiles: "tuple[str, ...]" = PROPERTY_PROFILES,
                   max_seed: int = 10_000):
    """Strategy yielding generated WorkloadSpecs (seed + profile draws)."""
    return st.builds(
        lambda seed, profile: generate(seed, profile),
        st.integers(min_value=0, max_value=max_seed),
        st.sampled_from(profiles),
    )


def runtime_config_kwargs():
    """Strategy over RuntimeConfig kwargs: schedulers x caches x datamove."""
    return st.fixed_dictionaries({
        "scheduler": st.sampled_from(SCHEDULERS),
        "cache_policy": st.sampled_from(["nocache", "wt", "wb"]),
        "overlap": st.booleans(),
        "prefetch": st.booleans(),
        "wb_elision": st.booleans(),
        "cost_aware_eviction": st.booleans(),
    })


def machine_names():
    return st.sampled_from(MACHINES)
