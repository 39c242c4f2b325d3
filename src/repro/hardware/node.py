"""A cluster node: host CPU cores, host memory, GPUs and a NIC."""

from __future__ import annotations

from typing import Optional

from ..sim import Environment, Process, Resource, Timeout
from .gpu import GPUDevice
from .link import Link
from .specs import NICSpec, NodeSpec

__all__ = ["Node"]


class Node:
    """One machine image: cores, host memory bus, GPUs, NIC tx/rx ports."""

    def __init__(self, env: Environment, spec: NodeSpec, index: int,
                 nic: Optional[NICSpec] = None):
        self.env = env
        self.spec = spec
        self.index = index
        self.cores = Resource(env, capacity=spec.cpu.cores,
                              name=f"node{index}.cores")
        # Host memory bus: used for pinned-staging copies and SMP kernels.
        self.membus = Link(env, spec.cpu.mem_bandwidth, latency=0.0,
                           name=f"node{index}.membus", lanes=spec.cpu.cores)
        self.gpus = []
        share = max(1, spec.gpus_per_pcie_link)
        shared_links: dict[int, tuple[Link, Link]] = {}
        for i, gspec in enumerate(spec.gpus):
            group = i // share
            if share > 1:
                if group not in shared_links:
                    shared_links[group] = (
                        Link(env, gspec.pcie_pinned_bw, gspec.pcie_latency,
                             name=f"node{index}.pcie{group}.h2d"),
                        Link(env, gspec.pcie_pinned_bw, gspec.pcie_latency,
                             name=f"node{index}.pcie{group}.d2h"),
                    )
                h2d, d2h = shared_links[group]
            else:
                h2d = d2h = None
            self.gpus.append(GPUDevice(env, gspec, i, node=self,
                                       h2d=h2d, d2h=d2h))
        if nic is not None:
            self.nic_tx = Link(env, nic.bandwidth, nic.latency,
                               name=f"node{index}.nic_tx")
            self.nic_rx = Link(env, nic.bandwidth, nic.latency,
                               name=f"node{index}.nic_rx")
        else:
            self.nic_tx = self.nic_rx = None

    def host_copy(self, nbytes: int):
        """Process generator: a host-memory copy (e.g. pinned staging)."""
        yield Process(self.env, self.membus.transfer(nbytes))

    def run_cpu_work(self, duration: float):
        """Process generator: occupy one core for ``duration`` seconds."""
        if duration < 0:
            raise ValueError(f"negative CPU work duration {duration}")
        cores = self.cores
        req = cores.request()
        try:
            if req.callbacks is not None:
                yield req
            yield Timeout(self.env, duration)
        finally:
            cores.release(req)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.index} gpus={len(self.gpus)}>"
