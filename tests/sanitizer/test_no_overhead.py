"""Zero-overhead guarantee: the sanitizer never perturbs simulated time.

Two claims, both bit-exact:

1. With no sanitizer installed, the golden makespans are unchanged (its
   probe points are bound as empty tuples).
2. Even with the sanitizer *enabled*, simulated time is identical — all
   bookkeeping is host-side Python between events, which the discrete
   event clock never charges for.  Observability must not change what
   it observes.
"""

import numpy as np
import pytest

from repro.apps import stream
from repro.bench.harness import fresh_multi_gpu
from repro.runtime import RuntimeConfig
from repro.sanitizer import install

from ..bench.golden_scenarios import SCENARIOS
from ..bench.test_golden_makespan import GOLDEN_MAKESPANS

# A cross-section, not the full table (tier-1 already runs it all
# without the sanitizer): one multi-GPU perf run, one streaming app,
# one cluster run with presend.
_SUBSET = (
    "matmul-2gpu-wb-affinity",
    "stream-2gpu-wb-default",
    "matmul-2node-stos-ps4",
)


@pytest.mark.parametrize("name", _SUBSET)
def test_golden_makespan_bit_identical_without_sanitizer(name):
    assert SCENARIOS[name]() == GOLDEN_MAKESPANS[name]


@pytest.mark.parametrize("name", _SUBSET)
def test_golden_makespan_bit_identical_with_sanitizer_enabled(name):
    with install() as san:
        makespan = SCENARIOS[name]()
    assert makespan == GOLDEN_MAKESPANS[name]
    assert san.findings() == []


def test_functional_run_identical_with_and_without_sanitizer():
    """Functional mode: same simulated makespan *and* same output bytes
    whether or not the checker is watching the buffers."""
    size = stream.StreamSize(n=256, bsize=64, ntimes=2)
    config = RuntimeConfig()

    plain = stream.run_ompss(fresh_multi_gpu(2), size, config=config, verify=True)

    with install() as san:
        watched = stream.run_ompss(fresh_multi_gpu(2), size, config=config, verify=True)
    assert san.findings() == []
    assert watched.makespan == plain.makespan
    assert plain.output and watched.output.keys() == plain.output.keys()
    for name, want in plain.output.items():
        got = np.asarray(watched.output[name])
        assert got.tobytes() == np.asarray(want).tobytes(), name
