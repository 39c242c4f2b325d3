"""The fault engine: interprets a :class:`~repro.faults.plan.FaultPlan`.

One engine instance is attached to a :class:`~repro.runtime.Runtime` when
its config carries a non-empty plan.  It plays two roles:

* **injection** — timed events (GPU loss, PCIe degradation windows) are
  scheduled on the simulation clock; triggered events (kernel aborts, AM
  drops) are decided synchronously when the hardware/AM layers ask, using
  a private seeded RNG whose draws happen in deterministic simulation
  order (so one ``seed`` ⇒ one timeline, independent of
  ``PYTHONHASHSEED``);
* **recovery orchestration** — on a device loss it invalidates the dead
  cache and directory replicas, blacklists the device's manager in its
  scheduler, re-routes stranded work (back to the master when the node
  has no live GPU left), and replays producer tasks for regions whose
  only copy died with the device.

Everything the engine does is observable: each fault and recovery action
lands in :attr:`FaultEngine.timeline`, in ``faults.*`` counters of the
metrics registry, and at the ``fault`` probe point, where a subscribed
tracer draws it as a zero-length span on the Chrome timeline.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Optional

from ..sim import Event
from .errors import FaultRecoveryError
from .plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from ..memory.region import Region
    from ..runtime.runtime import Image, Runtime

__all__ = ["FaultEngine"]


class FaultEngine:
    """Deterministic interpreter for one plan over one runtime."""

    def __init__(self, runtime: "Runtime", plan: FaultPlan):
        self.rt = runtime
        self.env = runtime.env
        self.plan = plan
        self.metrics = runtime.metrics
        self.rng = random.Random(plan.seed)
        #: ``(time, kind, detail)`` records of every fault and recovery
        #: action, in order — the determinism tests hash this.
        self.timeline: list[tuple[float, str, str]] = []
        self._started = False
        #: per-device kernel launch counters (for ``nth`` selectors).
        self._kernel_seq: dict[tuple[int, int], int] = {}
        #: global AM attempt counter (for ``nth`` selectors).
        self._am_seq = 0
        #: region key -> event fired when a replayed producer restores it.
        self._restores: dict = {}
        #: tid -> re-executions so far (bounded by
        #: ``FaultPlan.max_task_retries``).
        self.retries: dict[int, int] = {}
        # Event-kind views of the plan (tuples preserve plan order).
        self._degrades = plan.by_kind("link_degrade")
        self._partitions = plan.by_kind("link_partition")
        self._pcie = plan.by_kind("pcie_degrade")
        self._kernel_aborts = plan.by_kind("kernel_abort")
        self._am_events = {
            "drop": plan.by_kind("am_drop"),
            "corrupt": plan.by_kind("am_corrupt"),
            "ack_drop": plan.by_kind("am_ack_drop"),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the plan's timed events (idempotent)."""
        if self._started:
            return
        self._started = True
        env = self.env
        for ev in self.plan.by_kind("gpu_loss"):
            env.at(ev.at, lambda ev=ev: self.fail_gpu(ev.node, ev.gpu))
        for ev in self._pcie:
            env.at(ev.at, lambda ev=ev: self._pcie_boundary(ev, "on"))
            if math.isfinite(ev.duration):
                env.at(ev.at + ev.duration,
                       lambda ev=ev: self._pcie_boundary(ev, "off"))
        for ev in self._degrades + self._partitions:
            env.at(ev.at, lambda ev=ev: self.note(
                f"{ev.kind}_on", f"{ev.src}->{ev.dst} x{ev.factor:g}"
                if ev.kind == "link_degrade" else f"{ev.src}->{ev.dst}"))

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def note(self, kind: str, detail: str = "") -> None:
        now = self.env.now
        self.timeline.append((now, kind, detail))
        self.metrics.inc(f"faults.{kind}")
        for fn in self.rt.probes.fault:
            fn(kind, detail, now)

    # ------------------------------------------------------------------
    # Interceptors (bound by the runtime's probe seam, see
    # repro.runtime.probes, and consulted by the network, AM and GPU
    # manager layers)
    # ------------------------------------------------------------------
    def link_slowdown(self, src: int, dst: int) -> float:
        """Current inter-node wire-time multiplier for ``src -> dst``."""
        factor = 1.0
        now = self.env.now
        for ev in self._degrades:
            if (ev.at <= now < ev.at + ev.duration
                    and ev.matches_link(src, dst)):
                factor *= ev.factor
        return factor

    def link_blocked(self, src: int, dst: int) -> bool:
        now = self.env.now
        return any(ev.at <= now < ev.at + ev.duration
                   and ev.matches_link(src, dst) for ev in self._partitions)

    def am_outcome(self, src: int, dst: int) -> str:
        """Fate of one AM attempt: ``ok`` / ``blackhole`` / ``drop`` /
        ``corrupt`` / ``ack_drop`` (decided at send time, one RNG draw per
        probabilistic event, in plan order)."""
        self._am_seq += 1
        seq = self._am_seq
        if self.link_blocked(src, dst):
            self.note("am_blackholed", f"{src}->{dst}#{seq}")
            return "blackhole"
        for outcome in ("drop", "corrupt", "ack_drop"):
            for ev in self._am_events[outcome]:
                if ev.matches_link(src, dst) and self._hit(ev, seq):
                    self.note(f"am_{outcome}ped" if outcome != "corrupt"
                              else "am_corrupted", f"{src}->{dst}#{seq}")
                    return outcome
        return "ok"

    def kernel_should_abort(self, manager, task) -> bool:
        """ECC-style abort decision for one kernel launch."""
        key = (manager.node_index, manager.gpu.index)
        seq = self._kernel_seq.get(key, 0) + 1
        self._kernel_seq[key] = seq
        for ev in self._kernel_aborts:
            if ev.matches_device(*key) and self._hit(ev, seq):
                self.note("kernel_abort",
                          f"{task.name}@{manager.place_name}#{seq}")
                return True
        return False

    def _hit(self, ev, seq: int) -> bool:
        """Does triggered event ``ev`` fire on attempt ``seq``?  Its
        ``nth`` attempt exactly, or one RNG draw against its probability."""
        if ev.nth is not None:
            return ev.nth == seq
        return self.rng.random() < ev.probability

    def _pcie_boundary(self, ev, edge: str) -> None:
        """Recompute the affected links' degradation from the set of
        currently-active windows (absolute, so stacking/unstacking windows
        restores exact factors)."""
        gpu = self.rt.machine.nodes[ev.node].gpus[ev.gpu]
        now = self.env.now
        factor = 1.0
        for other in self._pcie:
            if (other.node == ev.node and other.gpu == ev.gpu
                    and other.at <= now < other.at + other.duration):
                factor *= other.factor
        gpu.h2d.degradation = factor
        gpu.d2h.degradation = factor
        self.note(f"pcie_degrade_{edge}",
                  f"gpu:{ev.node}:{ev.gpu} x{factor:g}")

    # ------------------------------------------------------------------
    # Device loss + recovery
    # ------------------------------------------------------------------
    def fail_gpu(self, node_index: int, gpu_index: int) -> None:
        """Kill one GPU: invalidate its state, blacklist it, re-route its
        work, restore any data stranded on it."""
        rt = self.rt
        image = rt.images[node_index]
        manager = None
        for m in image.gpu_managers:
            if m.gpu.index == gpu_index:
                manager = m
                break
        if manager is None or not manager.alive:
            return
        manager.alive = False
        manager.gpu.failed = True
        manager.space.failed = True
        # The master must stop treating this node as a cuda target when no
        # live GPU remains there, and reclaim cuda work queued for it.
        proxy = None
        if node_index != 0 and not any(m.alive for m in image.gpu_managers):
            for p in rt.master_image.proxies:
                if p.node_index == node_index:
                    proxy = p
                    proxy.gpus_alive = False
        self.note("gpu_lost", manager.place_name)
        dropped = manager.cache.invalidate_all()
        if dropped:
            self.metrics.inc("faults.cache_entries_invalidated", dropped)
        orphans = rt.directory.invalidate_space(manager.space)
        if orphans:
            self._replay_producers(orphans)
        stranded = image.scheduler.blacklist(manager)
        stranded.extend(image.scheduler.drain_unrunnable())
        running = manager.current_task
        for task in sorted(stranded, key=lambda t: t.tid):
            if task is running:
                continue  # the manager loop abandons (and requeues) it
            self.metrics.inc("faults.tasks_rebalanced")
            self.resubmit(image, task)
        if proxy is not None:
            for task in rt.master_image.scheduler.rebalance(proxy):
                self.metrics.inc("faults.tasks_rebalanced")
                self.resubmit(rt.master_image, task)
        if self.plan.paranoid:
            self.check_now()
        rt.notify_work()

    def resubmit(self, image: "Image", task) -> None:
        """Put a recovered task back where something can actually run it."""
        if self.rt.datamove is not None:
            self.rt.datamove.note_resubmit(task)
        if any(w.accepts(task) for w in image.scheduler.workers):
            image.submit_local(task)
            return
        if image.is_master:
            raise FaultRecoveryError(
                f"no execution place left that can run {task!r}")
        self.return_to_master(task, image.node.index)

    def return_to_master(self, task, from_node: int) -> None:
        """Pull a dispatched task back from a node that can no longer run
        it; the master re-places it (and reclaims the dispatch credit)."""
        from ..runtime.task import TaskState

        rt = self.rt
        master = rt.master_image
        if master.comm_thread is not None:
            master.comm_thread.forget_dispatch(task, from_node)
        task.state = TaskState.READY
        task.assigned_to = None
        task.node_index = None
        self.metrics.inc("faults.tasks_rerouted")
        self.note("task_rerouted", f"{task.name}<-node{from_node}")
        master.submit_local(task)

    # ------------------------------------------------------------------
    # Data restoration
    # ------------------------------------------------------------------
    def _replay_producers(self, orphans: list) -> None:
        """Regions whose only copy died: resubmit a clone of each region's
        recorded producer.  Only side-effect-free producers (no inout
        clause) can be replayed — an inout producer consumed the very
        version it would need as input.  With ``protect_outputs`` (the
        default) committed outputs are checkpointed to host memory and
        this path only ever sees never-protected data."""
        rt = self.rt
        by_producer: dict = {}
        for region in orphans:
            ent = rt.directory.entry(region)
            producer = ent.producer
            if producer is None:
                raise FaultRecoveryError(
                    f"the only copy of {region!r} was lost with the device "
                    "and no producer task is recorded to replay it")
            for acc in producer.accesses:
                if acc.direction.reads and acc.direction.writes:
                    raise FaultRecoveryError(
                        f"cannot replay {producer!r} to restore {region!r}: "
                        "an inout producer is not side-effect-free "
                        "(enable protect_outputs)")
            by_producer.setdefault(producer.tid, (producer, []))[1].append(
                region)
            if region.key not in self._restores:
                self._restores[region.key] = Event(self.env)
        for tid in sorted(by_producer):
            producer, regions = by_producer[tid]
            clone = self._clone(producer)
            self.metrics.inc("faults.producers_replayed")
            self.note("producer_replayed",
                      f"{producer.name}->" + ",".join(
                          r.obj.name for r in regions))
            rt.submit(clone)

    def _clone(self, task):
        """A fresh submission-ready copy of ``task`` (new tid, clean
        runtime state)."""
        from ..runtime.task import Task

        codelet, nest = task.codelet, task.nest
        return Task(
            name=f"{task.name}~replay",
            accesses=task.accesses,
            device=task.device,
            kernel=codelet.kernel,
            cost_kwargs=task.cost_kwargs,
            smp_cost=task.smp_cost,
            func=codelet.func,
            args=task.args,
            copy_deps=codelet.copy_deps,
            copies=task.copies,
            subtasks=(nest.subtasks if nest is not None and nest.owner is task
                      else None),
        )

    def wait_restored(self, region: "Region") -> Optional[Event]:
        """The event a stalled fetch should wait on, if a replay is
        pending for ``region`` (else None: the loss is unrecoverable)."""
        return self._restores.get(region.key)

    def commit(self, task, written) -> None:
        """Probe point: new versions were committed — release any fetch
        stalled on their restoration."""
        for acc in written:
            ev = self._restores.pop(acc.region.key, None)
            if ev is not None:
                ev.succeed()
                self.note("region_restored", acc.region.obj.name)

    # ------------------------------------------------------------------
    # Invariants (paranoid mode)
    # ------------------------------------------------------------------
    def check_now(self) -> None:
        from .invariants import check_coherence

        problems = check_coherence(self.rt,
                                   pending=frozenset(self._restores))
        if problems:
            raise FaultRecoveryError(
                "coherence invariants violated after recovery: "
                + "; ".join(problems))
