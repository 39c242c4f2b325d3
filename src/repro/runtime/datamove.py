"""The data-movement optimisation layer (``RuntimeConfig`` datamove flags).

The paper's headline results come from *hiding* data movement: the software
cache, master-to-slave presend, and transfer/compute overlap.  Four
mechanisms sit on top of the baseline protocol, each gated by its own
``RuntimeConfig`` flag and each a no-op when disabled (with every flag off
the runtime constructs no :class:`DataMover` at all, so the event stream —
and therefore every golden makespan — is bit-identical):

* **write-back elision** (``wb_elision``) — :class:`LivenessTracker` orders
  accesses per region by write sequence.  A dirty *version* whose remaining
  readers have all finished and whose next writer is a live pure-output copy
  access is *dead*: evicting it (or committing it under write-through /
  no-cache) skips the host write-back entirely.  The
  directory records the deliberate hole (:meth:`Directory.record_discard`)
  so invariant checks and fault recovery can tell it from data loss.

* **presend pipelining** (``presend_depth``) — the cluster master's
  communication thread peeks ``presend_depth`` tasks ahead in the affinity
  queues (beyond the dispatch credit window) and prestages their inputs at
  the target node, so slaves compute task *k* while the data of tasks
  *k+1..k+depth* is in flight.  It needs no liveness, so it lives entirely
  in :class:`~repro.runtime.cluster.CommThread` and builds no
  :class:`DataMover`.

* **cost-aware eviction** (``cost_aware_eviction``) — :meth:`make_cost_fn`
  gives each software cache a re-fetch cost estimator (bytes over the
  source link bandwidth, plus the write-back a dirty victim would cost);
  the cache evicts cheapest-to-refetch first within a widened LRU window.

* **write-through recovery** (``adaptive_datamove``) — a monitor evaluated
  every ``WINDOW`` commits (:meth:`DataMover.note_commit`).  On a run
  configured write-through it switches the commit write mode to write-back,
  one way, after ``HYSTERESIS`` consecutive windows in which the caches'
  write-backs grew while the transfer links were busy at least
  ``BUSY_HIGH`` of the window — eager per-commit device->host copies then
  stop competing with the fetch traffic.  The scheduling policy plays no
  part: the monitor reads the caches and links directly.

Everything here is bookkeeping: no method schedules a simulated event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..memory.cache import CachePolicy
from ..memory.region import Region, RegionKey

if TYPE_CHECKING:  # pragma: no cover
    from ..memory.cache import CacheEntry, SoftwareCache
    from ..memory.space import AddressSpace
    from .runtime import Runtime
    from .task import Task

__all__ = ["DataMover", "LivenessTracker"]

#: commits between two evaluations of the write-through recovery monitor.
WINDOW = 24

#: consecutive pressured windows before the monitor switches to write-back.
HYSTERESIS = 2

#: summed link busy seconds per simulated second of a window at or above
#: which growing write-back traffic counts as pressure.
BUSY_HIGH = 0.5


class LivenessTracker:
    """Version-aware liveness: which region versions can still be read.

    Region-level reader *counts* are useless for elision: a program that
    submits all its iterations up front (STREAM, matmul) always has live
    future readers of every region — but those readers consume future
    versions, not the one sitting dirty in a cache now.  The tracker
    therefore orders accesses by a per-region **write sequence**: every
    writer submitted bumps the sequence, a reader consumes the state after
    the writers submitted before it, and commits (which happen in sequence
    order, enforced by the dependency graph's RAW/WAR/WAW arcs) advance an
    *installed* pointer.

    The installed version ``s`` of a region is **dead** when:

    * the next live writer ``w1`` (the lowest uncommitted write sequence
      above ``s``) is a *pure copy overwriter* — a publish-through-commit
      access that writes without reading, so it replaces the bytes without
      ever observing them; and
    * no unfinished reader consumes the installed version — i.e. no live
      task holds a read sequence in ``[s, w1)``.

    Submission order is program order for the tasks the main program
    creates (one sequential main), which is what makes the sequence
    attribution exact — and only for those: a decomposing parent's children
    are submitted when the parent runs, after siblings that follow it in
    program order.  Children are therefore never registered.  They run
    inside their parent's claim instead: a task with ``subtasks`` keeps the
    entries of its whole footprint from its submission until it *finishes*
    (not until its own commit, which precedes the children), and none of
    its writes counts as a pure overwrite — so nothing is elided inside a
    nested scope and everything outside it is judged exactly.
    """

    __slots__ = ("_wseq", "_installed", "_live")

    def __init__(self):
        #: last assigned write sequence per region (0 = registration state)
        self._wseq: dict[RegionKey, int] = {}
        #: write sequence of the currently committed (installed) version
        self._installed: dict[RegionKey, int] = {}
        #: key -> {tid: (read_seq | None, write_seq | None, pure_copy)}
        self._live: dict[RegionKey, dict[int, tuple]] = {}

    def task_submitted(self, task: "Task") -> None:
        # Merge the dependence and copy clauses into one direction per key.
        info: dict[RegionKey, list] = {}
        for acc in task.accesses:
            e = info.setdefault(acc.region.key, [False, False, False])
            e[0] |= acc.direction.reads
            e[1] |= acc.direction.writes
        for acc in task.copies:
            e = info.setdefault(acc.region.key, [False, False, False])
            e[0] |= acc.direction.reads
            e[1] |= acc.direction.writes
        # Only copy-clause writes publish a new version through
        # commit_outputs; a dependence-only OUT mutates data without a
        # commit, so it can never cover a discard.
        for acc in task.copy_accesses:
            if acc.direction.writes:
                info[acc.region.key][2] = True
        entries = []
        tid = task.tid
        # A decomposing parent never overwrites blindly: its children may
        # read what its own commit (or an earlier child) published.
        leaf = task.subtasks is None
        for key, (reads, writes, publishes) in info.items():
            r = self._wseq.get(key, 0) if reads else None
            w = None
            if writes:
                w = self._wseq.get(key, 0) + 1
                self._wseq[key] = w
            pure = publishes and writes and not reads and leaf
            entries.append((key, r, w, pure))
            self._live.setdefault(key, {})[tid] = (r, w, pure)
        task._liveness_entries = entries

    def task_committed(self, task: "Task") -> None:
        """The task's commit has *published* its outputs (directory
        updated): its writes install, it stops reading, and its own fresh
        version must no longer look overwritable by its own write entry.
        Called only after the publish point — a torn commit never installs,
        so the re-executed task keeps its original sequence numbers.  A
        decomposing parent stays live: its children run after this commit."""
        if task.subtasks is None:
            self._retire(task)

    def task_finished(self, task: "Task") -> None:
        # A task that committed was already retired there; a copy-less
        # task, a decomposing parent (or a task whose device died after
        # publishing) retires here.  Its writes — if any — happened (SMP
        # tasks mutate host data directly), so they install too.
        self._retire(task)

    def _retire(self, task: "Task") -> None:
        entries = getattr(task, "_liveness_entries", None)
        if entries is None:
            return
        task._liveness_entries = None
        tid = task.tid
        for key, _r, w, _pure in entries:
            live = self._live.get(key)
            if live is not None:
                live.pop(tid, None)
                if not live:
                    del self._live[key]
            if w is not None and w > self._installed.get(key, 0):
                self._installed[key] = w

    def version_is_dead(self, region: Region) -> bool:
        """True when the installed version of ``region`` can never be
        observed again: its next writer is a live pure copy overwriter and
        every reader of the installed version has finished."""
        live = self._live.get(region.key)
        if not live:
            return False
        s = self._installed.get(region.key, 0)
        w1 = None
        w1_pure = False
        for _r, w, pure in live.values():
            if w is not None and w > s and (w1 is None or w < w1):
                w1, w1_pure = w, pure
        if w1 is None or not w1_pure:
            return False
        for r, _w, _pure in live.values():
            if r is not None and s <= r < w1:
                return False
        return True


class DataMover:
    """What the runtime consults when liveness is tracked (``wb_elision``,
    ``cost_aware_eviction`` or ``adaptive_datamove``): the tracker, the
    elision decision over it, the commit write mode with the monitor that
    recovers a write-through run from write-back pressure, and the eviction
    cost function.  It is a probe subscriber (:mod:`repro.runtime.probes`):
    the task lifecycle points feed :attr:`liveness`, and every ``commit``
    also reaches :meth:`note_commit`."""

    def __init__(self, rt: "Runtime"):
        self.rt = rt
        cfg = rt.config
        #: elide write-backs of dead versions (``wb_elision``; fixed for
        #: the run).
        self.elision = cfg.wb_elision
        #: runtime override of the configured cache write policy.  ``None``
        #: means "as configured"; the recovery monitor sets it to
        #: write-back.  Consulted by :meth:`CoherenceEngine.commit_outputs`
        #: at every publish point, so a switch takes effect for all
        #: subsequent commits.
        self.write_mode: Optional[CachePolicy] = None
        self.liveness = LivenessTracker()
        self._c_elisions = rt.metrics.counter("datamove.writebacks_elided")
        self._c_elided_bytes = rt.metrics.counter("datamove.bytes_elided")
        # -- write-through recovery monitor -----------------------------------
        self._watch = (cfg.adaptive_datamove
                       and cfg.cache_policy is CachePolicy.WRITE_THROUGH)
        #: the machine's links, each once (GPUs behind one PCIe switch
        #: share their links).
        links = []
        for node in rt.machine.nodes:
            links += (node.membus, node.nic_tx, node.nic_rx)
            for gpu in node.gpus:
                links += (gpu.h2d, gpu.d2h)
        self._links = [link for link in dict.fromkeys(links)
                       if link is not None]
        self._commits = 0
        self._streak = 0
        self._last = (0, 0.0, 0.0)  # write-backs, busy seconds, sim time

    # -- probe points ----------------------------------------------------
    def task_submitted(self, task: "Task", parent) -> None:
        if parent is None:  # children run under their parent's claim
            self.liveness.task_submitted(task)

    def commit(self, task: "Task", written) -> None:
        self.liveness.task_committed(task)
        self.note_commit()

    def task_retired(self, task: "Task") -> None:
        self.liveness.task_finished(task)

    def note_resubmit(self, task: "Task") -> None:
        """Fault recovery re-runs ``task``: it never committed, so the claim
        it runs under — its own, or its top-level ancestor's for a nested
        child (see :class:`LivenessTracker`) — is intact and reused."""
        while task.parent is not None:
            task = task.parent
        assert getattr(task, "_liveness_entries", None) is not None, \
            "requeued task was already retired from liveness"

    # -- commit write mode ---------------------------------------------------
    def set_write_mode(self, policy: "CachePolicy | str") -> None:
        """Override the cache write policy for every commit from now on.

        Dirty entries created before the switch keep their state: a
        write-through -> write-back switch simply stops eager commit
        write-backs (eviction and flush still drain dirty data), and the
        reverse resumes them.  Neither direction can lose data."""
        self.write_mode = CachePolicy.parse(policy)
        self.rt.metrics.inc("datamove.write_mode_switches")
        self.rt.metrics.set_info("datamove.write_mode",
                                 self.write_mode.value)

    def signals(self) -> tuple[int, float]:
        """The monitor's inputs: write-backs so far over every software
        cache, and the summed busy seconds of the transfer links."""
        return (sum(cache.writebacks for cache in self.rt.all_caches()),
                sum(link.busy_seconds for link in self._links))

    def note_commit(self) -> None:
        """A commit passed its publish point: every ``WINDOW`` commits,
        judge the window and, after ``HYSTERESIS`` pressured windows in a
        row, switch a write-through run to write-back for good — going
        back to eager writes would only recreate the saturation."""
        if not self._watch:
            return
        self._commits += 1
        if self._commits < WINDOW:
            return
        self._commits = 0
        writebacks, busy = self.signals()
        now = self.rt.env.now
        w0, b0, t0 = self._last
        self._last = (writebacks, busy, now)
        if now <= t0:
            return
        if writebacks > w0 and (busy - b0) / (now - t0) >= BUSY_HIGH:
            self._streak += 1
            if self._streak >= HYSTERESIS:
                self._watch = False
                self.set_write_mode(CachePolicy.WRITE_BACK)
        else:
            self._streak = 0

    # -- write-back elision ----------------------------------------------
    def may_elide_writeback(self, region: Region) -> bool:
        if not self.elision:
            return False
        return self.liveness.version_is_dead(region)

    def count_elision(self, region: Region) -> None:
        self._c_elisions.value += 1
        self._c_elided_bytes.value += region.nbytes

    # -- cost-aware eviction ---------------------------------------------
    def make_cost_fn(self, cache: "SoftwareCache"
                     ) -> Callable[["CacheEntry"], float]:
        """Re-fetch cost estimator for one device cache, in seconds.

        Costs: a dirty victim pays its write-back first; refetching then
        costs one PCIe leg when a same-node host copy exists (or will,
        after the write-back), and a NIC wire leg on top when the data
        lives only on a remote node.  A dead dirty version (see
        :class:`LivenessTracker`) costs nothing — it will never be fetched
        again — which composes elision with eviction ordering.
        """
        rt = self.rt
        space = cache.space
        node = rt.machine.nodes[space.node_index]
        gpu = node.gpus[space.device_index]
        pcie_bw = gpu.spec.pcie_pinned_bw
        nic_bw = (rt.machine.network.nic.bandwidth
                  if rt.is_cluster else None)
        directory = rt.directory

        def cost(ent: "CacheEntry") -> float:
            region = ent.region
            nbytes = region.nbytes
            if ent.dirty and self.may_elide_writeback(region):
                return 0.0
            seconds = nbytes / pcie_bw          # the refetch PCIe leg
            if ent.dirty:
                seconds += nbytes / pcie_bw     # write-back before the drop
                return seconds                  # host then holds the source
            dent = directory.peek(region)
            if dent is not None and not any(
                    s.kind == "host" and s.node_index == space.node_index
                    for s in dent.holders):
                # No same-node host copy: the refetch crosses the fabric
                # (or drains a sibling device first).
                seconds += (nbytes / nic_bw if nic_bw is not None
                            else nbytes / pcie_bw)
            return seconds

        return cost
