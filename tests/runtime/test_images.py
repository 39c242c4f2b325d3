"""Tests for image construction: worker counts, core reservations."""

from dataclasses import replace

from repro.hardware import (MULTI_GPU_NODE, build_gpu_cluster,
                            build_multi_gpu_node)
from repro.runtime import Runtime
from repro.sim import Environment


def test_multi_gpu_node_reserves_manager_cores():
    env = Environment()
    rt = Runtime(build_multi_gpu_node(env, num_gpus=4))
    image = rt.master_image
    # 8 cores, 4 GPU managers -> 4 SMP workers.
    assert len(image.gpu_managers) == 4
    assert len(image.smp_workers) == 4


def test_cluster_master_also_reserves_comm_core():
    env = Environment()
    rt = Runtime(build_gpu_cluster(env, num_nodes=2))
    master = rt.master_image
    # 8 cores, 1 GPU manager, 1 communication thread -> 6 SMP workers.
    assert len(master.gpu_managers) == 1
    assert len(master.smp_workers) == 6
    slave = rt.images[1]
    # Slaves have no communication thread: 7 SMP workers.
    assert len(slave.smp_workers) == 7


def test_explicit_smp_worker_count_overrides():
    # The worker count follows the node's cores: 6 cores, 4 managers -> 2.
    spec = replace(MULTI_GPU_NODE, cpu=replace(MULTI_GPU_NODE.cpu, cores=6))
    rt = Runtime(build_multi_gpu_node(Environment(), num_gpus=4, spec=spec))
    assert len(rt.master_image.smp_workers) == 2


def test_at_least_one_smp_worker():
    env = Environment()
    # Hypothetical node where GPUs would consume all cores: clamp to 1.
    from repro.hardware import Node
    from repro.hardware.cluster import Machine

    spec = replace(MULTI_GPU_NODE,
                   cpu=replace(MULTI_GPU_NODE.cpu, cores=2))
    machine = Machine(env, [Node(env, spec, index=0)], name="tiny")
    rt = Runtime(machine)
    assert len(rt.master_image.smp_workers) >= 1


def test_spaces_and_caches_created_per_gpu():
    env = Environment()
    rt = Runtime(build_multi_gpu_node(env, num_gpus=4))
    for i in range(4):
        space = rt.gpu_space(0, i)
        cache = rt.cache_of(space)
        assert cache is not None
        assert cache.capacity < rt.machine.nodes[0].gpus[i].mem_capacity
    assert rt.cache_of(rt.master_host) is None


def test_start_is_idempotent():
    env = Environment()
    rt = Runtime(build_multi_gpu_node(env, num_gpus=1))
    rt.start()
    rt.start()  # second call is a no-op
    assert rt.running
