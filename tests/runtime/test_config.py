"""Tests for RuntimeConfig validation and helpers."""

import dataclasses
from pathlib import Path

import pytest

from repro.memory import CachePolicy
from repro.runtime import RuntimeConfig


def test_defaults_match_paper():
    cfg = RuntimeConfig()
    # "write-back, being this last one the default policy"
    assert cfg.cache_policy is CachePolicy.WRITE_BACK
    # "dependencies (default in the charts, as is the default scheduling
    # policy of the runtime)"
    assert cfg.scheduler == "default"
    # "Data overlapping is disabled by default"
    assert not cfg.overlap


def test_policy_string_coerced():
    assert RuntimeConfig(cache_policy="wt").cache_policy \
        is CachePolicy.WRITE_THROUGH


def test_unknown_scheduler_rejected():
    with pytest.raises(ValueError, match="unknown scheduler"):
        RuntimeConfig(scheduler="rr")


def test_negative_presend_rejected():
    with pytest.raises(ValueError):
        RuntimeConfig(presend=-1)


def test_gpu_cache_fraction_bounds():
    with pytest.raises(ValueError):
        RuntimeConfig(gpu_cache_fraction=0.0)
    with pytest.raises(ValueError):
        RuntimeConfig(gpu_cache_fraction=1.5)
    RuntimeConfig(gpu_cache_fraction=1.0)  # boundary ok


def test_jitter_bounds():
    with pytest.raises(ValueError):
        RuntimeConfig(kernel_jitter=1.0)
    with pytest.raises(ValueError):
        RuntimeConfig(kernel_jitter=-0.1)


def test_task_overhead_validation():
    with pytest.raises(ValueError):
        RuntimeConfig(task_overhead=-1e-6)


_FIGURES = "src/repro/bench/figures.py"
_COMM_BENCH = "benchmarks/perf/comm_bench.py"

#: every knob -> (the file that sets it to a non-default value, its kind)
KNOBS = {
    "cache_policy": (_FIGURES, "figure dimension"),
    "scheduler": (_FIGURES, "figure dimension"),
    "overlap": (_FIGURES, "figure dimension"),
    "prefetch": (_FIGURES, "figure dimension"),
    "presend": (_FIGURES, "figure dimension"),
    "slave_to_slave": (_FIGURES, "figure dimension"),
    "functional": (_FIGURES, "figure dimension"),
    "wb_elision": (_COMM_BENCH, "comm-bench row"),
    "cost_aware_eviction": (_COMM_BENCH, "comm-bench row"),
    "gpu_cache_fraction": (_COMM_BENCH, "comm-bench row"),
    "presend_depth": (_COMM_BENCH, "comm-bench row"),
    "steal": ("benchmarks/test_ablation_runtime_knobs.py", "ablation"),
    "fault_plan": ("benchmarks/perf/faults_bench.py", "fault benchmark"),
    # model parameters: only tests move them off their calibrated values
    "kernel_jitter": ("tests/faults/test_recovery.py", "model parameter"),
    "task_overhead": ("tests/faults/test_recovery.py", "model parameter"),
}


def test_knob_table_covers_every_field():
    """ROADMAP aim 2 counts knobs; a new field has to be argued for there
    (two existing callers needing different values), not slipped in, and
    it enters this table with the file that sets it."""
    assert set(KNOBS) == {f.name for f in dataclasses.fields(RuntimeConfig)}
    root = Path(__file__).resolve().parents[2]
    for name, (path, _kind) in KNOBS.items():
        assert name in (root / path).read_text(), (name, path)


def test_with_replaces_fields():
    base = RuntimeConfig()
    changed = base.with_(scheduler="affinity", presend=4)
    assert changed.scheduler == "affinity"
    assert changed.presend == 4
    assert base.scheduler == "default"  # original untouched (frozen)


def test_describe_labels():
    assert RuntimeConfig().describe() == "wb-default-stos"
    cfg = RuntimeConfig(cache_policy="nocache", scheduler="bf",
                        overlap=True, prefetch=True, presend=2,
                        slave_to_slave=False)
    assert cfg.describe() == "nocache-bf-ovl-pf-ps2-mtos"
