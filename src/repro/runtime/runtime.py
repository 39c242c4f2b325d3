"""The Nanos++ runtime facade: images, spaces, submission, taskwait.

One :class:`Runtime` instance manages a whole execution over a
:class:`~repro.hardware.Machine`.  On a single node there is one *image*
(scheduler + SMP workers + GPU managers); on a cluster the master image
additionally owns the dependency graph, the per-remote-node proxies and the
communication thread, while slave images execute what they are sent — the
paper's hierarchical design.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..faults import FaultEngine
from ..gasnet import AMLayer
from ..hardware.cluster import Machine
from ..memory.cache import SoftwareCache
from ..memory.directory import Directory
from ..memory.region import DataObject, Region
from ..memory.space import AddressSpace, DeviceSpace, HostSpace
from ..sim import Environment, Event
from . import probes
from .cluster import CommThread, NodeProxy
from .coherence import CoherenceEngine
from .config import RuntimeConfig
from .datamove import DataMover
from .dependences import DependencyGraph
from .gpu_manager import GPUManager
from .scheduler import make_scheduler
from .task import Task, TaskState
from .worker import SMPWorker

__all__ = ["Runtime", "Image"]

#: which of an image's wake events a notification fires: the places that
#: could run the newly ready work, plus the ``node`` waiter (the
#: communication thread, which dispatches any task kind).
_WAKE_KINDS = {
    None: ("smp", "cuda", "node"),
    "smp": ("smp", "node"),
    "cuda": ("cuda", "node"),
}


class Image:
    """One runtime image: the per-node scheduler and execution places."""

    def __init__(self, rt: "Runtime", node, is_master: bool):
        self.rt = rt
        self.node = node
        self.is_master = is_master
        self.host_space = rt.host_space(node.index)
        #: wake events of this image's parked places, by waiter kind.  Each
        #: node runs its own scheduler and task pool (paper Section III.D),
        #: so work entering this image's queues wakes only this image.
        self._work_events = {kind: rt.env.event()
                             for kind in ("smp", "cuda", "node")}
        self.scheduler = make_scheduler(
            rt.config.scheduler, self.notify_work, rt.directory,
            steal=rt.config.steal, metrics=rt.metrics,
        )
        # Execution places.  Each GPU claims a manager thread; on a cluster
        # master one more core serves communication; the rest run SMP tasks.
        reserved = len(node.gpus) + (1 if (is_master and rt.is_cluster) else 0)
        n_smp = max(1, node.spec.cpu.cores - reserved)
        self.smp_workers = [SMPWorker(self, i) for i in range(n_smp)]
        self.gpu_managers = []
        for gpu in node.gpus:
            space = rt.gpu_space(node.index, gpu.index)
            cache = rt.cache_of(space)
            manager = GPUManager(self, gpu, space, cache)
            self.gpu_managers.append(manager)
            rt._managers[id(space)] = manager
        for worker in self.smp_workers + self.gpu_managers:
            self.scheduler.register_worker(worker)
        # Cluster master extras.
        self.proxies: list[NodeProxy] = []
        self.comm_thread: Optional[CommThread] = None
        if is_master and rt.is_cluster:
            self.proxies = [NodeProxy(rt, n.index)
                            for n in rt.machine.nodes[1:]]
            for proxy in self.proxies:
                self.scheduler.register_worker(proxy)
            self.comm_thread = CommThread(self, self.proxies)

    def start(self) -> None:
        env = self.rt.env
        for worker in self.smp_workers:
            env.process(worker.run())
        for manager in self.gpu_managers:
            env.process(manager.run())
        if self.comm_thread is not None:
            env.process(self.comm_thread.run())

    # ------------------------------------------------------------------
    def notify_work(self, device: Optional[str] = None) -> None:
        """Wake this image's idle execution places.

        ``device`` narrows the wakeup to the places that could actually run
        the newly ready work (``"smp"`` workers or ``"cuda"`` managers);
        the communication thread (the ``"node"`` waiter, parked on the
        image that owns the proxies) dispatches any task kind and is woken
        either way.  A bare call wakes every kind.  Places of other images
        poll other queues and are never touched — see
        :meth:`Runtime.notify_work` for the broadcast.
        """
        events = self._work_events
        for kind in _WAKE_KINDS[device]:
            ev = events[kind]
            if ev.callbacks:
                events[kind] = Event(ev.env)
                ev.succeed()

    def wait_for_work(self, kind: str) -> Event:
        """Event the next :meth:`notify_work` relevant to ``kind`` (the
        waiter's worker kind: ``"smp"``, ``"cuda"`` or ``"node"``) fires."""
        return self._work_events[kind]

    def submit_local(self, task: Task) -> None:
        """Enter a (ready) task into this image's scheduler."""
        self.scheduler.submit(task)

    def run_children(self, parent: Task) -> Event:
        """Execute ``parent``'s decomposition children on this image.

        Children get their own sibling-scope dependency graph (paper
        Section III.C.1: "a hierarchical implementation of the graph") and
        never involve the master.  Returns an event firing when all of them
        have finished.
        """
        nest = parent.nest
        children = nest.subtasks()
        done = Event(self.rt.env)
        if not children:
            done.succeed()
            return done
        probes = self.rt.probes
        graph = DependencyGraph(on_arc=probes.dep_arc)
        nest.graph = graph
        nest.left = len(children)
        nest.done = done
        for child in children:
            if child.nest is None:
                child.nest = nest          # a flat child: its parent's
            else:
                child.nest.parent = parent
            for fn in probes.task_submitted:
                fn(child, parent)
            if graph.add_task(child):
                self.submit_local(child)
        return done

    def finish_task(self, task: Task, place, start: float) -> None:
        """Called by the executing place, which took ``task`` at ``start``,
        once its body committed and its decomposition children finished."""
        for fn in self.rt.probes.task_finished:
            fn(task, place, start, self.rt.env.now)
        if task.nest is not None and task.parent is not None:
            self._account_child(task, place)
        elif self.is_master:
            self.account_finished(task, place)
        else:
            # Completion notification back to the master (active message).
            self.rt.env.process(self._notify_master(task))

    def _account_child(self, task: Task, place) -> None:
        """Child-task bookkeeping: local graph + parent completion count."""
        rt = self.rt
        if task.state is TaskState.FINISHED:
            # As in account_finished: a second completion must neither
            # release successors again nor fire a second event.
            rt.metrics.inc("runtime.duplicate_completions")
            return
        nest = task.parent.nest
        for fn in rt.probes.task_retired:
            fn(task)
        newly_ready = nest.graph.task_finished(task)
        for t in newly_ready:
            self.submit_local(t)
        # See account_finished; ``taskwait on`` never waits for a child.
        Event(rt.env).succeed()
        nest.left -= 1
        if nest.left == 0:
            nest.done.succeed()
        # Children never leave the image that runs their parent.
        self.notify_work()

    def _notify_master(self, task: Task):
        yield self.rt.am.request(self.node.index, 0, "nanos.task_done",
                                 task, self.node.index)

    def account_finished(self, task: Task, place) -> None:
        """Master-side graph/scheduler bookkeeping for a finished task."""
        rt = self.rt
        if task.state is TaskState.FINISHED:
            # A duplicate completion (a resent acknowledgement, or a task
            # that was re-dispatched during recovery and finished twice)
            # must not double-decrement successor counts in the graph.
            rt.metrics.inc("runtime.duplicate_completions")
            return
        for fn in rt.probes.task_retired:
            fn(task)
        newly_ready = rt.graph.task_finished(task)
        self.scheduler.task_finished(task, place, newly_ready)
        rt._c_finished.value += 1
        # The completion is one event whether or not anybody waited: the
        # waiter's, else a throwaway one nobody keeps, so the event
        # sequence does not depend on who waited.
        waited = rt._waited
        done = waited.pop(task.tid, None) if waited else None
        (Event(rt.env) if done is None else done).succeed()
        # SMP/GPU places are woken by scheduler.submit when a successor
        # actually becomes ready, so completions don't wake them; the
        # master's communication thread must still see completions — a
        # remote task finishing frees proxy capacity, which can make a
        # long-queued dispatch possible without any new submission.
        # (notify_work for the one kind, inlined: once per task.)
        events = rt.master_image._work_events
        node_ev = events["node"]
        if node_ev.callbacks:
            events["node"] = Event(rt.env)
            node_ev.succeed()
        if rt._idle_event is not None and rt.graph.live_count == 0:
            ev, rt._idle_event = rt._idle_event, None
            ev.succeed()


class Runtime:
    """The whole Nanos++ instance for one execution."""

    def __init__(self, machine: Machine,
                 config: Optional[RuntimeConfig] = None,
                 subscribers=()):
        self.machine = machine
        self.env: Environment = machine.env
        self.config = config or RuntimeConfig()
        #: the run's counter registry — the machine's, which its hardware
        #: already counts into; every runtime layer reports here too.
        self.metrics = machine.metrics
        functional = self.config.functional

        # -- address spaces -------------------------------------------------
        self._host_spaces: list[HostSpace] = []
        self._gpu_spaces: dict[tuple[int, int], DeviceSpace] = {}
        self._caches: dict[int, SoftwareCache] = {}
        self._managers: dict[int, GPUManager] = {}
        for node in machine.nodes:
            host = HostSpace(f"node{node.index}.host", node.index,
                             functional, canonical=(node.index == 0))
            self._host_spaces.append(host)
            for gpu in node.gpus:
                space = DeviceSpace(f"node{node.index}.gpu{gpu.index}",
                                    node.index, gpu.index, functional)
                self._gpu_spaces[(node.index, gpu.index)] = space
                capacity = int(gpu.mem_capacity
                               * self.config.gpu_cache_fraction)
                self._caches[id(space)] = SoftwareCache(
                    space, capacity, self.config.cache_policy,
                    metrics=self.metrics)

        self.directory = Directory(home=self.master_host,
                                   metrics=self.metrics)

        # -- datamove optimisation layer ------------------------------------
        #: the :class:`~repro.runtime.datamove.DataMover`, or None when no
        #: flag needs version liveness (``presend_depth`` alone does not:
        #: the communication thread reads it from the config) — the None
        #: case constructs nothing, so the baseline event stream (and the
        #: golden makespans) stays bit-identical.  Must exist before the
        #: coherence engine, which binds it in its own __init__.
        cfg = self.config
        self.datamove: Optional[DataMover] = (
            DataMover(self)
            if cfg.wb_elision or cfg.cost_aware_eviction else None)
        if cfg.cost_aware_eviction:
            for cache in self._caches.values():
                cache.victim_cost_fn = self.datamove.make_cost_fn(cache)

        # -- fault injection ------------------------------------------------
        #: FaultEngine when the config carries a non-empty plan; None
        #: otherwise (an empty plan is treated exactly like no plan, so
        #: fault-free schedules stay bit-identical).
        plan = cfg.fault_plan
        self.faults: Optional[FaultEngine] = (
            FaultEngine(self, plan)
            if plan is not None and not plan.is_empty else None)

        # -- the probe seam (repro.runtime.probes) ---------------------------
        #: every point and interceptor, bound once: the installed
        #: subscribers, the ``subscribers`` argument, and the runtime's own
        #: liveness tracker and fault engine.
        self.probes = probes.bind(self, *subscribers, self.datamove,
                                  self.faults)
        self.coherence = CoherenceEngine(self)
        self.graph = DependencyGraph(on_arc=self.probes.dep_arc)

        # -- cluster fabric ------------------------------------------------------
        self.am: Optional[AMLayer] = None
        if machine.is_cluster:
            am = self.am = AMLayer(self.env, machine.network)
            p = self.probes
            am.on_sent, am.on_handled = p.am_sent, p.am_handled
            am.outcomes, am.retry = p.am_outcome, plan
            machine.network.slowdowns = p.link_slowdown
            self._register_am_handlers()

        # -- images -------------------------------------------------------------
        self.images = [Image(self, node, is_master=(node.index == 0))
                       for node in machine.nodes]
        self.master_image = self.images[0]

        # -- signalling ------------------------------------------------------------
        self.running = False
        #: fired (and cleared) when the graph drains; lazily created by
        #: taskwait so a full barrier costs one wakeup, not one per task.
        self._idle_event: Optional[Event] = None
        #: completion events of the unfinished tasks a ``taskwait on``
        #: waits for, by tid: created by the first waiter, fired and
        #: dropped by the task's completion.
        self._waited: dict[int, Event] = {}
        # Bound per-task instruments (see CounterRegistry.counter): the
        # submit/finish bookkeeping runs once per task and skips the
        # registry's name lookups.
        self._c_submitted = self.metrics.counter("runtime.tasks_submitted")
        self._c_finished = self.metrics.counter("runtime.tasks_finished")
        self._g_live = self.metrics.gauge("runtime.tasks_live")
        self._started = False

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    @property
    def is_cluster(self) -> bool:
        return self.machine.is_cluster

    @property
    def master_host(self) -> HostSpace:
        return self._host_spaces[0]

    def host_space(self, node_index: int) -> HostSpace:
        return self._host_spaces[node_index]

    def gpu_space(self, node_index: int, gpu_index: int) -> DeviceSpace:
        return self._gpu_spaces[(node_index, gpu_index)]

    def cache_of(self, space: AddressSpace) -> Optional[SoftwareCache]:
        return self._caches.get(id(space))

    def all_caches(self) -> list[SoftwareCache]:
        return list(self._caches.values())

    def gpu_manager_of(self, space: AddressSpace) -> GPUManager:
        return self._managers[id(space)]

    def place_of(self, space: AddressSpace):
        manager = self._managers.get(id(space))
        if manager is not None:
            return manager
        return self.images[space.node_index]

    # ------------------------------------------------------------------
    # Lifecycle and signalling
    # ------------------------------------------------------------------
    def start(self) -> "Runtime":
        if self._started:
            return self
        self._started = True
        self.running = True
        for image in self.images:
            image.start()
        if self.faults is not None:
            self.faults.start()
        return self

    def notify_work(self) -> None:
        """Broadcast: wake every idle execution place of every image.

        For the rare events that can change what *any* place may run —
        shutdown, a device blacklisted and its work re-placed by the fault
        engine.  Ready work never comes through here: a scheduler wakes
        only its own image (:meth:`Image.notify_work`), so a submission on
        one node causes no idle poll on another.
        """
        for image in self.images:
            image.notify_work()

    # ------------------------------------------------------------------
    # Data registration (the application's shared objects)
    # ------------------------------------------------------------------
    def register_array(self, name: str, num_elements: int,
                       dtype=np.float32,
                       initial: Optional[np.ndarray] = None) -> DataObject:
        obj = DataObject(name=name, num_elements=num_elements, dtype=dtype)
        self.master_host.register_object(obj, initial=initial)
        # The directory learns about regions lazily, at the granularity tasks
        # actually use (whole-object entries here would conflict with tiles).
        return obj

    def read_array(self, obj: DataObject) -> np.ndarray:
        """The canonical (master host) contents — call after a flushing
        taskwait, otherwise the data may still live on a device."""
        return self.master_host.object_array(obj)

    # ------------------------------------------------------------------
    # Task submission / synchronization (the compiler-facing API)
    # ------------------------------------------------------------------
    def submit(self, task: Task) -> Task:
        if not self._started:
            self.start()
        if not self.config.functional:
            task.args = ()   # no body runs: keep no arguments alive
        self._c_submitted.value += 1
        for fn in self.probes.task_submitted:
            fn(task, None)
        ready = self.graph.add_task(task)
        self._g_live.set(self.graph.live_count)
        if ready:
            self.master_image.submit_local(task)
        return task

    def taskwait(self, noflush: bool = False):
        """Process generator: block until all submitted tasks finished;
        unless ``noflush``, also make host data current (paper's taskwait
        vs ``taskwait noflush``)."""
        while self.graph.live_count > 0:
            # A full barrier sleeps on the graph-drained event: one wakeup
            # when the last task commits instead of one per completion.
            if self._idle_event is None:
                self._idle_event = self.env.event()
            yield self._idle_event
        if not noflush:
            yield from self.coherence.flush()
        for fn in self.probes.taskwait:
            fn(None)

    def taskwait_on(self, regions: list[Region], noflush: bool = False):
        """Process generator: the ``taskwait on(...)`` construct — wait only
        for the producers of ``regions``."""
        producers = []
        for region in regions:
            producer = self.graph.last_writer_of(region)
            if producer is not None:
                done = self._waited.get(producer.tid)
                if done is None:
                    done = self._waited[producer.tid] = self.env.event()
                producers.append(done)
        if producers:
            yield self.env.all_of(producers)
        if not noflush:
            yield from self.coherence.flush(regions)
        for fn in self.probes.taskwait:
            fn(regions)

    def run_main(self, main_generator) -> float:
        """Execute a main program (a generator using submit/taskwait) to
        completion; returns the simulated makespan in seconds.

        The engine's event count is recorded in the metrics registry as the
        ``engine.events_processed`` gauge (cumulative over every
        ``run_main`` call on this runtime).
        """
        self.start()
        start = self.env.now
        proc = self.env.process(main_generator)
        self.env.run(until=proc)
        m = self.metrics
        for cache in self._caches.values():
            m.set_gauge(f"cache.{cache.space.name}.hit_rate",
                        cache.hit_rate)
        m.set_gauge("engine.events_processed", self.env.events_processed)
        return self.env.now - start

    # ------------------------------------------------------------------
    # Cluster AM handlers
    # ------------------------------------------------------------------
    def _register_am_handlers(self) -> None:
        assert self.am is not None
        for endpoint in self.am.endpoints:
            endpoint.register("nanos.region_data", self._h_region_data)
            endpoint.register("nanos.run_task", self._h_run_task)
            if endpoint.node_index == 0:
                endpoint.register("nanos.task_done", self._h_task_done)

    def _h_region_data(self, src: int, region: Region,
                       src_space: AddressSpace,
                       dst_space: AddressSpace) -> None:
        """Bulk region payload arriving at ``dst_space``'s node."""
        if self.config.functional:
            dst_space.write(region, src_space.read(region))

    def _h_run_task(self, src: int, task: Task) -> None:
        """Control message: execute ``task`` on this image.

        A dispatch can race a device loss: the master sent the task while
        every worker on the target node that could run it was dying.  The
        loss-time drains (blacklist / rebalance) can't see a task that is
        still on the wire, so an arrival nobody accepts must bounce back
        to the master or it would sit in the dead node's queue forever.
        """
        image = self.images[task.node_index]
        if (self.faults is not None and not image.is_master
                and not any(w.accepts(task)
                            for w in image.scheduler.workers)):
            self.faults.return_to_master(task, image.node.index)
            return
        image.submit_local(task)

    def _h_task_done(self, src: int, task: Task, node_index: int) -> None:
        """Completion message arriving back at the master."""
        self.master_image.comm_thread.on_remote_complete(task, node_index)
