"""Master-side cluster machinery (paper Section III.D.1).

When running on a cluster the first runtime image is the *master*; remote
nodes run *slave* images.  Tasks scheduled to a remote node are served by a
single **communication thread** that polls the task pool of each node in a
round-robin fashion.  For every dispatched task the master first gathers the
task's data at the target node (directly from the owner slave when
slave-to-slave transfers are enabled, through the master otherwise), then
sends a control active message to start remote execution; the slave answers
with a completion message.

The **presend** mechanism lets the communication thread keep up to
``1 + presend`` tasks outstanding per node, so the data movement for queued
tasks overlaps with the computation of earlier ones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...faults.errors import RegionLostError
from ..task import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime import Image, Runtime

__all__ = ["NodeProxy", "CommThread"]


class NodeProxy:
    """The master scheduler's stand-in for one remote node.

    It is registered as a worker: the affinity scheduler scores it by the
    bytes already resident anywhere on its node (the hierarchical view), and
    round-robin polling by the communication thread pulls tasks placed on it.
    """

    kind = "node"

    def __init__(self, rt: "Runtime", node_index: int):
        self.rt = rt
        self.node_index = node_index
        self.space = rt.host_space(node_index)
        self.cache = None
        self.outstanding = 0
        #: dispatched-but-unacknowledged tasks keyed by tid (Task equality
        #: recurses through successor lists, so identity keys only).
        self.inflight: dict[int, Task] = {}
        #: tids whose inputs the datamove prestage already started moving
        #: (prevents re-spawning the same speculative fetches every poll).
        self.prestaged: set[int] = set()
        #: cleared by :meth:`lose_gpus`.
        self.gpus_alive = True
        # ``cluster.node<i>.*`` instruments, bound when the event they
        # record first happens so an idle node exports no keys.
        self._metric_ns = f"cluster.node{node_index}"
        self._c_dispatched = None
        self._c_presends = None
        self._g_outstanding = None

    def admit(self, task: Task) -> None:
        """Dispatch bookkeeping: ``task`` now occupies one slot of this
        node's presend window."""
        self.outstanding += 1
        self.inflight[task.tid] = task
        task.node_index = self.node_index
        if self._c_dispatched is None:
            metrics = self.rt.metrics
            self._c_dispatched = metrics.counter(
                f"{self._metric_ns}.dispatched")
            self._g_outstanding = metrics.gauge(
                f"{self._metric_ns}.outstanding")
        self._c_dispatched.value += 1
        if self.outstanding > 1:
            # Shipped while an earlier task still runs there: this
            # dispatch's data movement is presend overlap.
            if self._c_presends is None:
                self._c_presends = self.rt.metrics.counter(
                    f"{self._metric_ns}.presends")
            self._c_presends.value += 1
        self._g_outstanding.set(self.outstanding)

    def release(self) -> None:
        """A dispatched task left the node (completed or rerouted)."""
        self.outstanding -= 1
        assert self.outstanding >= 0, "presend window broke"
        self._g_outstanding.set(self.outstanding)

    def lose_gpus(self) -> None:
        """Fault recovery: the node's last GPU died, so it stops attracting
        cuda work that would only bounce."""
        self.gpus_alive = False
        self.rt.master_image.scheduler.forget_takers()   # accepts() changed

    def accepts(self, task: Task) -> bool:
        # A remote node has CPUs and a GPU: it can host either device kind.
        # Decomposition children are local to the image that runs their
        # parent ("executed by any thread that becomes available in the
        # node") and are never shipped through a proxy.
        if task.nest is not None and task.parent is not None:
            return False
        return task.device != "cuda" or self.gpus_alive

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NodeProxy node{self.node_index}>"


class CommThread:
    """The master's single communication thread."""

    def __init__(self, master_image: "Image", proxies: list[NodeProxy]):
        self.image = master_image
        self.rt = master_image.rt
        self.env = self.rt.env
        self.proxies = proxies

    @property
    def window(self) -> int:
        """Outstanding tasks allowed per node: the executing one plus the
        presend credit."""
        return 1 + self.rt.config.presend

    def run(self):
        """Round-robin polling loop (a simulated process)."""
        rt = self.rt
        depth = rt.config.presend_depth
        while rt.running:
            progressed = False
            for proxy in self.proxies:
                while proxy.outstanding < self.window:
                    task = self.image.scheduler.next_task(proxy)
                    if task is None:
                        break
                    proxy.admit(task)
                    self.env.process(self._dispatch(proxy, task))
                    progressed = True
                if depth and self._prestage(proxy, depth):
                    progressed = True
            if not progressed:
                yield self.image.wait_for_work("node")

    def _dispatch(self, proxy: NodeProxy, task: Task):
        """Stage data at the node, then start remote execution."""
        rt = self.rt
        task.state = TaskState.RUNNING
        task.assigned_to = proxy
        # Node-level staging: every read region must be current somewhere on
        # the target node (the slave's local coherence handles host<->GPU).
        node_host = rt.host_space(proxy.node_index)
        fetches = []
        for acc in task.inputs:
            if proxy.node_index in rt.directory.nodes_with(acc.region):
                continue
            fetches.append(self.env.process(
                rt.coherence.fetch(acc.region, node_host)))
        if fetches:
            yield self.env.all_of(fetches)
        # Control message starting the remote execution (fire and forget —
        # completion comes back via its own active message).
        start = self.env.now
        yield rt.am.request(0, proxy.node_index, "nanos.run_task", task)
        for fn in rt.probes.dispatch:
            fn(task, proxy.node_index, start, self.env.now)

    def _prestage(self, proxy: NodeProxy, depth: int) -> bool:
        """Speculatively move the inputs of the next ``depth`` queued tasks
        to the proxy's node (scheduler lookahead beyond the credit window).
        Returns True when new fetches were actually started."""
        rt = self.rt
        node_host = rt.host_space(proxy.node_index)
        launched = False
        for task in self.image.scheduler.peek_for(proxy, depth):
            if task.tid in proxy.prestaged:
                continue
            proxy.prestaged.add(task.tid)
            rt.metrics.inc(f"cluster.node{proxy.node_index}.prestages")
            for acc in task.inputs:
                if proxy.node_index in rt.directory.nodes_with(acc.region):
                    continue
                self.env.process(
                    self._prestage_fetch(acc.region, node_host))
                launched = True
        return launched

    def _prestage_fetch(self, region, node_host):
        try:
            yield from self.rt.coherence.fetch(region, node_host)
        except RegionLostError:
            # Speculative fetch racing a device loss: give up quietly —
            # the real dispatch repeats the fetch under fault recovery.
            self.rt.metrics.inc("cluster.prestage_aborted")

    def on_remote_complete(self, task: Task, node_index: int) -> None:
        """Handler-side bookkeeping for a task completion message.

        Completions are deduplicated against the proxy's in-flight set:
        an acknowledgement for a task the fault engine already rerouted
        away from this node (or that a retried message delivered twice)
        must not decrement the presend window a second time, or the
        window would leak credit and over-dispatch.
        """
        if task.state is TaskState.FINISHED:
            self.rt.metrics.inc("cluster.stale_completions")
            return
        finished_proxy = None
        for proxy in self.proxies:
            if proxy.node_index == node_index:
                if task.tid not in proxy.inflight:
                    # A completion from a node the task was already pulled
                    # back from (device blacklisted, task rerouted): the
                    # dispatch credit was reclaimed by forget_dispatch.
                    self.rt.metrics.inc("cluster.stale_completions")
                    return
                del proxy.inflight[task.tid]
                proxy.prestaged.discard(task.tid)
                proxy.release()
                finished_proxy = proxy
                break
        # Credit the proxy (not the slave-side worker) so successor-first
        # hints keep follow-up tasks on the same node.
        self.image.account_finished(task, finished_proxy)

    def forget_dispatch(self, task: Task, node_index: int) -> None:
        """Reclaim the dispatch credit for a task being rerouted off a
        node (fault recovery).  Idempotent: a completion message that
        still arrives later is recognised as stale via ``inflight``."""
        for proxy in self.proxies:
            if proxy.node_index == node_index:
                if proxy.inflight.pop(task.tid, None) is not None:
                    proxy.release()
                return
