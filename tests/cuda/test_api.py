"""Tests for the simulated CUDA driver API."""

import numpy as np
import pytest

from repro.cuda import (
    CudaContext,
    CudaError,
    KernelSpec,
    SGEMM,
    arithmetic_cost,
    gemm_cost,
    nbody_cost,
    sgemm_func,
    streaming_cost,
)
from repro.hardware import GTX_480, TESLA_S2050, build_multi_gpu_node
from repro.sim import Environment


def make_ctx(env=None):
    env = env or Environment()
    machine = build_multi_gpu_node(env, num_gpus=1)
    node = machine.nodes[0]
    return env, CudaContext(env, node.gpus[0], node)


# ----------------------------------------------------------------- cost models

def test_gemm_cost_scales_cubically():
    c1 = gemm_cost(GTX_480, 512, 512, 512)
    c2 = gemm_cost(GTX_480, 1024, 1024, 1024)
    assert c2 == pytest.approx(8 * c1)


def test_gemm_cost_matches_sustained_throughput():
    n = 1024
    secs = gemm_cost(GTX_480, n, n, n)
    gflops = 2 * n**3 / secs / 1e9
    assert gflops == pytest.approx(GTX_480.sgemm_gflops)


def test_streaming_cost_uses_memory_bandwidth():
    nbytes = 10**9
    secs = streaming_cost(TESLA_S2050, nbytes)
    assert secs == pytest.approx(nbytes / TESLA_S2050.effective_mem_bandwidth)


def test_arithmetic_and_nbody_costs_positive():
    assert arithmetic_cost(GTX_480, 1e9) > 0
    assert nbody_cost(GTX_480, 20000, 1000) > 0


def test_nbody_cost_linear_in_block():
    c1 = nbody_cost(GTX_480, 20000, 1000)
    c2 = nbody_cost(GTX_480, 20000, 2000)
    assert c2 == pytest.approx(2 * c1)


def test_kernel_negative_cost_rejected():
    bad = KernelSpec(name="bad", cost=lambda spec: -1.0)
    with pytest.raises(ValueError):
        bad.duration(GTX_480)


# ------------------------------------------------------------------- context

def test_device_malloc_accounting():
    _env, ctx = make_ctx()
    ctx.malloc(1000)
    assert ctx.mem_allocated == 1000
    ctx.malloc(400)
    assert ctx.mem_allocated == 1400


def test_device_oom():
    _env, ctx = make_ctx()
    with pytest.raises(CudaError, match="out of device memory"):
        ctx.malloc(ctx.gpu.mem_capacity + 1)


def test_malloc_host_leases_pinned_pool():
    env, ctx = make_ctx()
    leases = []

    def proc():
        lease = yield ctx.malloc_host(1024)
        leases.append(lease)
        lease.release()

    env.process(proc())
    env.run()
    assert leases and ctx.pinned_pool.bytes_used == 0


def test_sync_memcpy_serializes_with_kernel_on_null_stream():
    env, ctx = make_ctx()
    k = KernelSpec(name="fixed", cost=lambda spec: 1.0)
    done = []
    ctx.launch(k)
    ev = ctx.memcpy(10**6, "h2d")
    ev.callbacks.append(lambda _e: done.append(env.now))
    env.run()
    # The copy waited for the 1s kernel before moving.
    assert done[0] > 1.0


def test_async_memcpy_overlaps_kernel_with_streams():
    env, ctx = make_ctx()
    k = KernelSpec(name="fixed", cost=lambda spec: 1.0)
    copy_stream = ctx.create_stream()
    copy_done = []
    ctx.launch(k)  # null stream, 1s
    ev = ctx.memcpy(10**6, "h2d", pinned=True, stream=copy_stream)
    ev.callbacks.append(lambda _e: copy_done.append(env.now))
    env.run()
    # Copy used the DMA engine concurrently: finished well before the kernel.
    assert copy_done[0] < 1.0


def test_memcpy_on_complete_callback():
    env, ctx = make_ctx()
    fired = []
    ctx.memcpy(1024, "h2d", on_complete=lambda: fired.append(env.now))
    env.run()
    assert len(fired) == 1


def test_launch_functional_body_executes():
    env, ctx = make_ctx()
    a = np.full(4, 2.0, dtype=np.float32)
    b = np.full(4, 3.0, dtype=np.float32)
    c = np.zeros(4, dtype=np.float32)
    ctx.launch(SGEMM, func_args=(a, b, c, 2, 2, 2), m=2, n=2, k=2)
    env.run()
    np.testing.assert_allclose(c.reshape(2, 2),
                               a.reshape(2, 2) @ b.reshape(2, 2))


def test_device_synchronize_covers_all_streams():
    env, ctx = make_ctx()
    k = KernelSpec(name="fixed", cost=lambda spec: 2.0)
    s2 = ctx.create_stream()
    ctx.launch(k)  # null stream
    ctx.memcpy(10**6, "h2d", pinned=True, stream=s2)
    log = []

    def syncer():
        yield ctx.synchronize()
        log.append(env.now)

    env.process(syncer())
    env.run()
    assert log[0] >= 2.0


def test_sgemm_func_accumulates():
    a = np.arange(4, dtype=np.float32)
    b = np.arange(4, dtype=np.float32)
    c = np.ones(4, dtype=np.float32)
    sgemm_func(a, b, c, 2, 2, 2)
    expected = np.ones((2, 2), dtype=np.float32) + a.reshape(2, 2) @ b.reshape(2, 2)
    np.testing.assert_allclose(c.reshape(2, 2), expected)
