"""Tests for links, GPUs, nodes and the network fabric."""

import pytest

from repro.hardware import (
    GTX_480,
    Link,
    TESLA_S2050,
    build_gpu_cluster,
    build_multi_gpu_node,
)
from repro.hardware.gpu import GPUDevice
from repro.sim import Environment


# ---------------------------------------------------------------------- Link

def test_link_occupancy_formula():
    env = Environment()
    link = Link(env, bandwidth=1e9, latency=1e-3)
    assert link.occupancy(1_000_000) == pytest.approx(1e-3 + 1e-3)


def test_link_rejects_bad_parameters():
    env = Environment()
    with pytest.raises(ValueError):
        Link(env, bandwidth=0, latency=0)
    with pytest.raises(ValueError):
        Link(env, bandwidth=1e9, latency=-1)
    link = Link(env, bandwidth=1e9, latency=0)
    with pytest.raises(ValueError):
        link.occupancy(-5)


def test_link_serializes_transfers():
    env = Environment()
    link = Link(env, bandwidth=1e6, latency=0)  # 1 MB/s
    done = []

    def xfer(tag):
        yield env.process(link.transfer(1_000_000))  # 1 s each
        done.append((tag, env.now))

    env.process(xfer("a"))
    env.process(xfer("b"))
    env.run()
    assert done == [("a", 1.0), ("b", 2.0)]
    prefix = f"hardware.link.{link.name}"
    assert env.metrics.value(f"{prefix}.bytes_moved") == 2_000_000
    assert env.metrics.value(f"{prefix}.transfers") == 2


def test_link_busy_time_includes_latency_term():
    """A latency-bound stream of tiny transfers must report the link as
    busy for the full hold time — counting only bytes/bandwidth would make
    the link look idle while it is in fact saturated by latency."""
    env = Environment()
    link = Link(env, bandwidth=1e9, latency=1e-3)
    for _ in range(10):
        env.process(link.transfer(1000))      # 1 us of wire, 1 ms of latency
    env.run()
    expected = 10 * (1e-3 + 1000 / 1e9)
    assert env.metrics.value(f"hardware.link.{link.name}.busy_seconds") \
        == pytest.approx(expected)
    assert env.now == pytest.approx(expected)  # fully serialized: held 100%


def test_link_degraded_hold_time_is_accounted():
    env = Environment()
    link = Link(env, bandwidth=1e6, latency=0.5)
    link.degradation = 3.0
    env.process(link.transfer(1_000_000))
    env.run()
    assert env.metrics.value(f"hardware.link.{link.name}.busy_seconds") \
        == pytest.approx(3.0 * (0.5 + 1.0))


def test_link_counts_into_the_environment_registry():
    env = Environment()
    link = Link(env, bandwidth=1e6, latency=0.0, name="nic0.tx")
    registry = env.metrics
    env.process(link.transfer(2_000_000))
    env.run()
    assert registry.value("hardware.link.nic0.tx.bytes_moved") == 2_000_000
    assert registry.value("hardware.link.nic0.tx.transfers") == 1
    assert registry.value("hardware.link.nic0.tx.busy_seconds") \
        == pytest.approx(2.0)


def test_multilane_link_allows_concurrency():
    env = Environment()
    link = Link(env, bandwidth=1e6, latency=0, lanes=2)
    done = []

    def xfer(tag):
        yield env.process(link.transfer(1_000_000))
        done.append((tag, env.now))

    env.process(xfer("a"))
    env.process(xfer("b"))
    env.run()
    assert done == [("a", 1.0), ("b", 1.0)]


# ----------------------------------------------------------------------- GPU

def test_gpu_kernel_occupies_compute_engine():
    env = Environment()
    gpu = GPUDevice(env, TESLA_S2050, index=0)
    done = []

    def kern(tag):
        yield env.process(gpu.run_kernel(1.0))
        done.append((tag, env.now))

    env.process(kern("k1"))
    env.process(kern("k2"))
    env.run()
    ovh = TESLA_S2050.kernel_launch_overhead
    assert done[0] == ("k1", pytest.approx(1.0 + ovh))
    assert done[1] == ("k2", pytest.approx(2.0 + 2 * ovh))
    assert env.metrics.value(f"hardware.gpu.{gpu.name}.kernels") == 2
    assert env.metrics.value(f"hardware.gpu.{gpu.name}.busy_seconds") \
        == pytest.approx(2.0 + 2 * ovh)


def test_gpu_rejects_negative_kernel_duration():
    env = Environment()
    gpu = GPUDevice(env, TESLA_S2050, index=0)
    with pytest.raises(ValueError):
        env.process(gpu.run_kernel(-1))
        env.run()


def test_tesla_two_copy_engines_overlap_directions():
    env = Environment()
    gpu = GPUDevice(env, TESLA_S2050, index=0)
    done = []

    def move(direction):
        yield env.process(gpu.dma_transfer(100 * 1024 * 1024, direction))
        done.append((direction, env.now))

    env.process(move("h2d"))
    env.process(move("d2h"))
    env.run()
    # Two copy engines: both directions complete at (roughly) the same time.
    assert done[0][1] == pytest.approx(done[1][1])


def test_gtx480_single_copy_engine_serializes_directions():
    env = Environment()
    gpu = GPUDevice(env, GTX_480, index=0)
    done = []

    def move(direction):
        yield env.process(gpu.dma_transfer(100 * 1024 * 1024, direction))
        done.append((direction, env.now))

    env.process(move("h2d"))
    env.process(move("d2h"))
    env.run()
    assert done[1][1] == pytest.approx(2 * done[0][1], rel=0.01)


def test_pageable_transfer_slower_than_pinned():
    env1, env2 = Environment(), Environment()
    g1 = GPUDevice(env1, GTX_480, index=0)
    g2 = GPUDevice(env2, GTX_480, index=0)
    env1.process(g1.dma_transfer(10 * 1024 * 1024, "h2d", pinned=True))
    env1.run()
    env2.process(g2.dma_transfer(10 * 1024 * 1024, "h2d", pinned=False))
    env2.run()
    assert env2.now > env1.now


def test_bad_dma_direction_rejected():
    env = Environment()
    gpu = GPUDevice(env, GTX_480, index=0)
    with pytest.raises(ValueError):
        env.process(gpu.dma_transfer(1, "sideways"))
        env.run()


# ---------------------------------------------------------------- Node/Machine

def test_multi_gpu_machine_shape():
    env = Environment()
    m = build_multi_gpu_node(env, num_gpus=4)
    assert m.num_nodes == 1
    assert not m.is_cluster
    assert sum(len(node.gpus) for node in m.nodes) == 4
    assert m.network is None
    assert m.nodes[0].nic_tx is None


def test_cluster_machine_shape():
    env = Environment()
    m = build_gpu_cluster(env, num_nodes=4)
    assert m.num_nodes == 4
    assert m.is_cluster
    assert sum(len(node.gpus) for node in m.nodes) == 4
    assert m.network is not None
    assert all(node.nic_tx is not None for node in m.nodes)


def test_node_cpu_cores_limit_concurrency():
    env = Environment()
    m = build_multi_gpu_node(env, num_gpus=1)
    node = m.nodes[0]
    done = []

    def work(tag):
        yield env.process(node.run_cpu_work(1.0))
        done.append((tag, env.now))

    for tag in range(10):  # node has 8 cores
        env.process(work(tag))
    env.run()
    at_one = [tag for tag, t in done if t == pytest.approx(1.0)]
    at_two = [tag for tag, t in done if t == pytest.approx(2.0)]
    assert len(at_one) == 8
    assert len(at_two) == 2


# -------------------------------------------------------------------- Network

def test_network_transfer_time():
    env = Environment()
    m = build_gpu_cluster(env, num_nodes=2)
    done = []

    def xfer():
        yield env.process(m.network.transfer(m.nodes[0], m.nodes[1], 10**9))
        done.append(env.now)

    env.process(xfer())
    env.run()
    expected = m.network.nic.latency + 10**9 / m.network.nic.bandwidth
    assert done == [pytest.approx(expected)]
    assert m.metrics.value("hardware.network.bytes_moved") == 10**9


def test_network_loopback_uses_host_memory():
    env = Environment()
    m = build_gpu_cluster(env, num_nodes=2)

    def xfer():
        yield env.process(m.network.transfer(m.nodes[0], m.nodes[0], 10**9))

    env.process(xfer())
    env.run()
    # Loopback is a memcpy, far faster than the wire.
    assert env.now < 10**9 / m.network.nic.bandwidth
    assert m.metrics.value("hardware.network.bytes_moved") == 0


def test_master_nic_is_contention_point():
    """Sends from the master to N slaves serialize on the master's tx port."""
    env = Environment()
    m = build_gpu_cluster(env, num_nodes=4)
    done = []

    def send(dst):
        yield env.process(m.network.transfer(m.nodes[0], m.nodes[dst], 10**8))
        done.append(env.now)

    for dst in (1, 2, 3):
        env.process(send(dst))
    env.run()
    one_msg = 10**8 / m.network.nic.bandwidth
    assert max(done) >= 3 * one_msg


def test_slave_to_slave_transfers_run_concurrently():
    """Disjoint node pairs do not contend (full crossbar)."""
    env = Environment()
    m = build_gpu_cluster(env, num_nodes=4)
    done = []

    def send(src, dst):
        yield env.process(m.network.transfer(m.nodes[src], m.nodes[dst], 10**8))
        done.append(env.now)

    env.process(send(0, 1))
    env.process(send(2, 3))
    env.run()
    one_msg = m.network.nic.latency + 10**8 / m.network.nic.bandwidth
    assert done == [pytest.approx(one_msg), pytest.approx(one_msg)]
