"""Tests for the shared application infrastructure."""

import pytest

from repro.apps.base import AppResult, make_contexts
from repro.hardware import build_gpu_cluster, build_multi_gpu_node
from repro.sim import Environment


def test_app_result_repr():
    r = AppResult(name="matmul", version="ompss", makespan=0.5,
                  metric=123.4, metric_unit="GFLOP/s")
    text = repr(r)
    assert "matmul/ompss" in text
    assert "GFLOP/s" in text


def test_make_contexts_multi_gpu():
    env = Environment()
    machine = build_multi_gpu_node(env, num_gpus=4)
    ctxs = make_contexts(machine)
    assert len(ctxs) == 4
    assert all(ctx.node is machine.nodes[0] for ctx in ctxs)


def test_make_contexts_cluster_one_per_node():
    env = Environment()
    machine = build_gpu_cluster(env, num_nodes=3)
    ctxs = make_contexts(machine)
    assert len(ctxs) == 3
    assert [ctx.node.index for ctx in ctxs] == [0, 1, 2]


def test_make_contexts_jitter_configurable():
    env = Environment()
    machine = build_multi_gpu_node(env, num_gpus=1)
    assert make_contexts(machine, jitter=0.0)[0].jitter == 0.0
    assert make_contexts(machine, jitter=0.05)[0].jitter == 0.05
