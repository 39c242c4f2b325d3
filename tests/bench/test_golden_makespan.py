"""Golden-value determinism tests for the runtime's simulated makespans.

The hot-path data structures (ready queues, LRU caches, the dependency
graph, affinity scoring) have been rewritten for speed; these tests pin the
**simulated-time** results to the values produced by the seed
implementation.  Wall-clock may improve freely — virtual time must not move
by a single ulp, because every structure swap is required to preserve event
order exactly.

The scenario table lives in :mod:`tests.bench.golden_scenarios`; the goldens
below were recorded from the seed run (see that module's docstring for the
re-recording procedure).
"""

import io

import pytest

from repro.runtime import probes, trace
from repro.sanitizer import install as install_sanitizer

from .golden_scenarios import SCENARIOS

GOLDEN_MAKESPANS = {
    'matmul-2gpu-nocache-bf': 0.058139312264394456,
    'matmul-2gpu-wt-default': 0.04724786790018952,
    'matmul-2gpu-wb-affinity': 0.04290489526861081,
    'matmul-4gpu-wb-affinity': 0.02303597097319201,
    'stream-2gpu-wb-default': 0.0153366333758011,
    'perlin-2gpu-wb-affinity-flush': 0.004448647868238926,
    'nbody-2gpu-wt-bf': 0.002897800365255401,
    'matmul-2node-stos-ps4': 0.062438833303290774,
    'matmul-4node-mtos-ps0': 0.029240903241189706,
    'stream-2node-stos-ps4': 0.018976735986617525,
    'nbody-4node-stos-ps1': 0.0016021829672313867,
    'nested-4node-stos-ps2': 0.024805902954022224,
    # ws / cp / adaptive / default-on-a-cluster: recorded from the six-class
    # scheduler package before it was folded into one policy-table core.
    'cholesky-4gpu-wb-cp': 0.13562707909928187,
    'cholesky-4gpu-wt-ws': 0.19241645836451254,
    'cholesky-4node-adaptive-ps2-pd2': 0.3921041331244046,
    'nested-4node-default': 0.020316992978374006,
    # static datamove flags: recorded before the datamove tier was cut to
    # three mechanisms and DataMover folded onto its liveness tracker.
    'stream-4gpu-thrash-elide-cae': 0.07317733565621484,
    'matmul-4node-mtos-ps0-pd4': 0.024063540278838363,
}


def test_scenario_table_and_goldens_agree():
    assert set(SCENARIOS) == set(GOLDEN_MAKESPANS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_makespan_is_bit_identical(name):
    # Exact float equality on purpose: the swap of queue/cache/graph
    # internals must not change which event fires when.
    assert SCENARIOS[name]() == GOLDEN_MAKESPANS[name]


class _Snapshots:
    """A subscriber to no point: keeps each runtime built while installed."""

    def __init__(self):
        self.runtimes = []

    def attach(self, runtime):
        self.runtimes.append(runtime)

    def taken(self):
        # The sanitizer's own counters exist only when it is subscribed.
        return [{k: v for k, v in rt.metrics.snapshot().items()
                 if not k.startswith("sanitizer.")}
                for rt in self.runtimes]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_subscriber_on_keeps_makespan_and_counters(name):
    with probes.install(_Snapshots()) as plain:
        SCENARIOS[name]()
    stream = io.StringIO()
    with probes.install(_Snapshots()) as watched, \
            trace.install() as tracer, install_sanitizer(), \
            probes.install(probes.JsonLinesRecorder(stream)):
        makespan = SCENARIOS[name]()
    assert makespan == GOLDEN_MAKESPANS[name]
    assert plain.runtimes and watched.taken() == plain.taken()
    assert tracer.events and stream.getvalue()
