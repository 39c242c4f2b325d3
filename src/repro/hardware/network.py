"""The interconnect fabric between cluster nodes.

A transfer from node A to node B holds A's NIC transmit port and B's NIC
receive port for the wire time.  Because every node has one tx and one rx
port, funnelling all traffic through the master node serializes on the
master's ports — exactly the contention the paper's MtoS-vs-StoS experiment
(Fig. 9) exercises.
"""

from __future__ import annotations

from ..sim import Environment
from .node import Node
from .specs import NICSpec

__all__ = ["Network"]


class Network:
    """Full-crossbar fabric: any pair of nodes can communicate directly."""

    def __init__(self, env: Environment, nodes: list[Node], nic: NICSpec):
        self.env = env
        self.nodes = nodes
        self.nic = nic
        self._c_bytes = env.metrics.counter("hardware.network.bytes_moved")
        self._c_messages = env.metrics.counter("hardware.network.messages")
        #: ``link_slowdown(src, dst)`` interceptors a runtime binds (the
        #: fault engine's degradation windows): each scales the wire time.
        self.slowdowns = ()

    @property
    def bytes_moved(self) -> int:
        return self._c_bytes.value

    def wire_time(self, nbytes: int) -> float:
        return self.nic.latency + nbytes / self.nic.bandwidth

    def transfer(self, src: Node, dst: Node, nbytes: int, priority: int = 0):
        """Process generator: move ``nbytes`` from ``src`` to ``dst``."""
        if src is dst:
            # Loopback: charged as a host-memory copy on the node.
            yield self.env.process(src.host_copy(nbytes))
            return
        if src.nic_tx is None or dst.nic_rx is None:
            raise RuntimeError("node has no NIC (not a cluster node)")
        # Hold both endpoints for the duration of the wire transfer.  The
        # sender's tx port is the primary serialization point.
        wire = self.wire_time(nbytes)
        for slowdown in self.slowdowns:
            wire *= slowdown(src.index, dst.index)
        with src.nic_tx._lanes.request(priority=priority) as tx_req:
            yield tx_req
            with dst.nic_rx._lanes.request(priority=priority) as rx_req:
                yield rx_req
                yield self.env.timeout(wire)
        # Full hold time (latency included) so latency-bound message
        # streams report truthful NIC busy fractions.
        src.nic_tx.account(nbytes, wire)
        dst.nic_rx.account(nbytes, wire)
        self._c_bytes.value += nbytes
        self._c_messages.value += 1
