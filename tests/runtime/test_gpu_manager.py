"""Behavioral tests for the GPU manager: overlap and prefetch effects."""

import pytest

from repro.cuda import KernelSpec
from repro.hardware import build_multi_gpu_node
from repro.runtime import Access, Direction, Runtime, RuntimeConfig, Task
from repro.sim import Environment


def make_rt(**cfg):
    env = Environment()
    machine = build_multi_gpu_node(env, num_gpus=1)
    defaults = dict(functional=False, kernel_jitter=0, task_overhead=0)
    defaults.update(cfg)
    return Runtime(machine, RuntimeConfig(**defaults))


def run_chainless_workload(rt, count=8, nbytes=64 << 20,
                           kernel_time=10e-3) -> float:
    """Independent tasks, each with a sizable distinct input to fetch."""
    kernel = KernelSpec(name="k", cost=lambda spec: kernel_time)
    tasks = []
    for i in range(count):
        obj = rt.register_array(f"x{i}", nbytes // 4)
        tasks.append(Task(name=f"t{i}", device="cuda", kernel=kernel,
                          accesses=(Access(obj.whole, Direction.IN),)))

    def main():
        for t in tasks:
            rt.submit(t)
        yield from rt.taskwait(noflush=True)

    return rt.run_main(main())


def test_prefetch_with_overlap_hides_transfers():
    base = run_chainless_workload(make_rt())
    optimized = run_chainless_workload(make_rt(overlap=True, prefetch=True))
    # Transfers of the next task overlap the current kernel.
    assert optimized < 0.75 * base


def test_prefetch_without_overlap_is_ineffective():
    """Paper: "the prefetch is more effective when combined with the
    overlapping of data transfers and computation as otherwise CUDA tends
    to serialize them after the kernel execution"."""
    base = run_chainless_workload(make_rt())
    prefetch_only = run_chainless_workload(make_rt(prefetch=True))
    # Without streams the prefetched copies queue behind the kernel: little
    # to no gain.
    assert prefetch_only > 0.9 * base


def test_overlap_charges_the_pinned_staging_copy():
    """Overlap requires "extra memory operations" (the host copy into the
    pinned intermediate buffer) — with a single task and nothing to hide,
    the makespan must include kernel + pinned DMA + staging copy."""
    rt = make_rt(overlap=True)
    nbytes, kernel_time = 64 << 20, 10e-3
    t_ovl = run_chainless_workload(rt, count=1, nbytes=nbytes,
                                   kernel_time=kernel_time)
    gpu_spec = rt.machine.nodes[0].gpus[0].spec
    dma = nbytes / gpu_spec.pcie_pinned_bw
    staging = nbytes / rt.machine.nodes[0].spec.cpu.mem_bandwidth
    assert t_ovl >= kernel_time + dma + 0.8 * staging


def test_task_overhead_charged_per_task():
    fast = run_chainless_workload(make_rt(task_overhead=0), count=8,
                                  nbytes=4096, kernel_time=1e-3)
    slow = run_chainless_workload(make_rt(task_overhead=5e-3), count=8,
                                  nbytes=4096, kernel_time=1e-3)
    assert slow >= fast + 8 * 5e-3 * 0.9


def test_manager_counts_tasks():
    rt = make_rt()
    run_chainless_workload(rt, count=5, nbytes=4096)
    manager = rt.gpu_manager_of(rt.gpu_space(0, 0))
    assert rt.metrics.value(f"gpu.{manager.place_name}.tasks") == 5


def test_kernel_jitter_perturbs_durations_deterministically():
    t1 = run_chainless_workload(make_rt(kernel_jitter=0.05))
    t2 = run_chainless_workload(make_rt(kernel_jitter=0.05))
    t3 = run_chainless_workload(make_rt(kernel_jitter=0.0))
    assert t1 == t2, "jitter must be deterministic"
    assert t1 != t3, "jitter must actually perturb"
