"""Machine builders for the paper's two evaluation environments."""

from __future__ import annotations

from typing import Optional

from ..sim import Environment
from .network import Network
from .node import Node
from .specs import (
    MULTI_GPU_NODE,
    ClusterSpec,
    NodeSpec,
    gpu_cluster_spec,
)

__all__ = ["Machine", "build_multi_gpu_node", "build_gpu_cluster"]


class Machine:
    """A set of nodes plus (for clusters) the fabric connecting them."""

    def __init__(self, env: Environment, nodes: list[Node],
                 network: Optional[Network] = None, name: str = ""):
        if not nodes:
            raise ValueError("a machine needs at least one node")
        self.env = env
        self.nodes = nodes
        self.network = network
        self.name = name

    @property
    def metrics(self):
        """The run's registry (the environment's): its hardware counts
        into it with or without a runtime on top."""
        return self.env.metrics

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def is_cluster(self) -> bool:
        return len(self.nodes) > 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        gpus = sum(len(node.gpus) for node in self.nodes)
        return f"<Machine {self.name!r} nodes={self.num_nodes} gpus={gpus}>"


def build_multi_gpu_node(env: Environment, num_gpus: int = 4,
                         spec: NodeSpec = MULTI_GPU_NODE) -> Machine:
    """The paper's 4x Tesla S2050 single-node machine (Figs. 5-8)."""
    node = Node(env, spec.with_gpus(num_gpus), index=0)
    return Machine(env, [node], name=f"multi-gpu x{num_gpus}")


def build_gpu_cluster(env: Environment, num_nodes: int,
                      spec: Optional[ClusterSpec] = None) -> Machine:
    """The paper's GTX 480 + QDR InfiniBand cluster (Figs. 9-13)."""
    cspec = spec or gpu_cluster_spec(num_nodes)
    nodes = [Node(env, cspec.node, index=i, nic=cspec.nic)
             for i in range(cspec.num_nodes)]
    network = Network(env, nodes, cspec.nic)
    return Machine(env, nodes, network, name=cspec.name)
