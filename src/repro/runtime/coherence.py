"""Coherence layer: keeping region copies consistent across address spaces.

Paper Section III.C.3: before a task executes, the coherence support ensures
an up-to-date copy of its data is available in the executing address space.
The directory knows who holds the current version; per-GPU software caches
track residency, dirtiness and LRU victims; this engine resolves the physical
transfer paths and charges their simulated time:

* host <-> GPU: DMA through the GPU's PCIe engines (pageable on the null
  stream without overlap; pinned staging + copy stream with overlap);
* GPU <-> GPU (same node): through host memory (CUDA 3.2 has no peer DMA);
* node <-> node: GASNet long active messages, routed directly slave-to-slave
  or indirectly through the master depending on configuration (Fig. 9).

Concurrent fetches of the same region to the same space are deduplicated via
an in-flight table, and multi-leg paths record the intermediate host copy in
the directory (it genuinely holds the data afterwards).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..faults.errors import RegionLostError
from ..memory.cache import CachePolicy, SoftwareCache
from ..memory.region import Region
from ..memory.space import AddressSpace
from ..sim import Event
from .task import Task

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Runtime

__all__ = ["CoherenceEngine"]


class CoherenceEngine:
    """Transfer-path resolution + cache/directory orchestration."""

    def __init__(self, runtime: "Runtime"):
        self.rt = runtime
        self.env = runtime.env
        self.directory = runtime.directory
        self.config = runtime.config
        #: the datamove layer, or None (no flag that needs liveness) — the
        #: None case must execute the byte-identical historical paths.
        self.datamove = runtime.datamove
        self.probes = runtime.probes
        faults = runtime.faults
        #: checkpoint-on-commit (``FaultPlan.protect_outputs``): only a
        #: fault plan can kill a device mid-commit.
        self.protect_outputs = (faults is not None
                                and faults.plan.protect_outputs)
        #: (space id, region key, version) -> completion event of the fetch.
        self._inflight: dict[tuple[int, tuple, int], Event] = {}
        #: per-link bound counter pairs (the f-string names are built and
        #: resolved once per link, not once per transfer leg).
        self._leg_counters: dict[str, tuple] = {}
        #: (source, destination) space -> how a same-node leg between them
        #: moves: ``(link label, GPU manager or None, DMA direction)``.
        self._moves: dict[tuple, tuple] = {}
        metrics = runtime.metrics
        self._c_transfers = metrics.counter("coherence.transfers")
        self._c_bytes = metrics.counter("coherence.bytes_transferred")

    def _count_leg(self, link: str, nbytes: int) -> None:
        """One physical transfer leg: totals plus per-link accounting.
        ``link`` uses the tracer's place labels (``net:0->1``,
        ``link:node0.host->node0.gpu0``) so counters and timelines line up."""
        counters = self._leg_counters.get(link)
        if counters is None:
            metrics = self.rt.metrics
            counters = self._leg_counters[link] = (
                metrics.counter(f"link.{link}.transfers"),
                metrics.counter(f"link.{link}.bytes"),
            )
        self._c_transfers.value += 1
        self._c_bytes.value += nbytes
        counters[0].value += 1
        counters[1].value += nbytes

    # ------------------------------------------------------------------
    # Task-level protocol
    # ------------------------------------------------------------------
    def stage_in(self, task: Task, place) -> "object":
        """Process generator: make every copy-clause region of ``task``
        available (and pinned) in ``place.space`` before execution."""
        copy_accs = task.copy_accesses
        if not copy_accs:
            # No copy semantics: the task runs against whatever shared
            # memory the place can reach (paper Section II.A.3: SMP tasks
            # without copy clauses see host data as-is).
            return
            yield  # pragma: no cover - generator marker
        cache: Optional[SoftwareCache] = place.cache
        space: AddressSpace = place.space
        issued = self.probes.transfer_issued
        directory = self.directory
        needed = []
        for acc in copy_accs:
            region = acc.region
            # Record the access: a hit (resident) is pinned in the same
            # call; a miss makes room first.  This is the hit/miss
            # statistic the cache-policy ablations report.
            if cache is not None and not cache.lookup(region, pin=True):
                yield from self._allocate_and_pin(region, cache)
            if acc.direction.reads:
                # Already-current inputs (cache hits, re-reads of a tile
                # this device produced) spawn no fetch process at all —
                # on figure workloads that is most of them.
                if not directory.is_current(region, space):
                    for fn in issued:
                        fn(task, region, space)
                    needed.append(region)
            elif self.config.functional and cache is not None:
                # Output-only on a device: materialize a writable buffer.
                space.writable(region)
        if len(needed) == 1:
            # Single missing input: run the fetch inline in this process
            # instead of spawning (and immediately joining) a child.
            yield from self.fetch(needed[0], space, place)
        elif needed:
            yield self.env.all_of([
                self.env.process(self.fetch(region, space, place))
                for region in needed
            ])

    def commit_outputs(self, task: Task, place) -> "object":
        """Process generator: publish the task's writes per cache policy.
        Returns False for a torn commit — the device died mid-commit
        without output protection and nothing was published — else True."""
        copy_accs = task.copy_accesses
        if not copy_accs:
            return True
            yield  # pragma: no cover - generator marker
        cache: Optional[SoftwareCache] = place.cache
        space: AddressSpace = place.space
        written = [a for a in copy_accs if a.direction.writes]
        protect = self.protect_outputs and cache is not None
        if protect:
            host = self.rt.host_space(space.node_index)
            # Checkpoint-on-commit, data first: host memory receives the
            # new bytes *before* the directory flips to the new version,
            # so there is no instant at which the sole current copy lives
            # on the device — a loss mid-commit either leaves the old
            # version (with its holders) intact, or finds the new one
            # already salvaged below.  The legs complete even if the
            # device fails under them: functional buffers survive a
            # failure exactly so in-flight DMA can drain (see
            # AddressSpace.failed).
            for acc in written:
                yield from self._move_leg(acc.region, space, host, place)
        lost = space.failed
        if lost and not protect:
            # Unprotected torn commit: the outputs died with the device
            # and were never published.  Leave the old version (still
            # recorded elsewhere) as current; the caller re-executes.
            # (So from here on, ``lost`` implies ``protect`` and ``host``.)
            return False
        for acc in written:
            self.directory.record_write(acc.region, host if lost else space,
                                        producer=task)
            if protect and not lost:
                self.directory.record_copy(acc.region, host)
            if cache is not None and not lost:
                if protect:
                    # Host already holds the new version: the entry is
                    # born clean, nothing to write back on eviction.
                    cache.mark_clean(acc.region)
                else:
                    cache.mark_dirty(acc.region)
        # Publish point passed.  The liveness tracker installs the task's
        # writes here, *before* the elision decisions below, so its own
        # fresh version is never judged dead by its own write entry; a
        # torn commit returned above, keeping a re-executed task's
        # sequence entries intact.
        for fn in self.probes.commit:
            fn(task, written)
        if cache is None or lost:
            return True
        policy = self.config.cache_policy
        dm = self.datamove
        if policy is CachePolicy.WRITE_THROUGH:
            # Propagate every write to host memory immediately — unless the
            # version is already dead (a live task will overwrite it and
            # nobody reads it): then the write-through is elided and the
            # entry stays dirty, exactly as write-back would keep it.
            for acc in written:
                if dm is not None and dm.may_elide_writeback(acc.region):
                    dm.count_elision(acc.region)
                else:
                    yield from self._writeback(acc.region, space, cache,
                                               place)
        elif policy is CachePolicy.NO_CACHE:
            # Move data out always: write back outputs, then drop everything
            # the task touched so nothing is reused.  Dead versions skip
            # the write-back and are dropped as deliberate discards.
            elided: set = set()
            for acc in written:
                if dm is not None and dm.may_elide_writeback(acc.region):
                    dm.count_elision(acc.region)
                    cache.clear_dirty(acc.region)
                    elided.add(acc.region.key)
                else:
                    yield from self._writeback(acc.region, space, cache,
                                               place)
            for acc in copy_accs:
                self._safe_unpin(acc.region, cache)
                ent = cache.entry_or_none(acc.region)
                if ent is not None and ent.pin_count == 0:
                    self._drop_entry(acc.region, space, cache,
                                     dead=acc.region.key in elided)
            return True
        # WB / WT: just unpin; entries stay resident.
        if space.failed:
            # Lost during a write-through's writebacks.
            for acc in copy_accs:
                self._safe_unpin(acc.region, cache)
        else:
            for acc in copy_accs:
                cache.unpin(acc.region)
        return True

    @staticmethod
    def _safe_unpin(region: Region, cache: SoftwareCache) -> None:
        """Unpin, tolerating (on a failed device only) an entry that the
        loss invalidated while the commit's writebacks were in flight."""
        if cache.space.failed:
            ent = cache.entry_or_none(region)
            if ent is None or ent.pin_count <= 0:
                return
        cache.unpin(region)

    # ------------------------------------------------------------------
    # Flushes (taskwait / OpenMP flush semantics)
    # ------------------------------------------------------------------
    def flush(self, regions: Optional[list[Region]] = None) -> "object":
        """Process generator: make the master host copy of each region
        current (all of them when ``regions`` is None)."""
        home = self.rt.master_host
        targets = self.directory.all_regions() if regions is None else regions
        moves = []
        for region in targets:
            if not self.directory.is_current(region, home):
                moves.append(self.env.process(
                    self.fetch(region, home, place=None)))
        if moves:
            yield self.env.all_of(moves)
        # Data written back is now clean in whichever caches hold it.
        for region in targets:
            for cache in self.rt.all_caches():
                if cache.has(region):
                    cache.mark_clean(region)

    # ------------------------------------------------------------------
    # Cache allocation / eviction
    # ------------------------------------------------------------------
    def _allocate_and_pin(self, region: Region, cache: SoftwareCache):
        """After a miss: make room for + pin ``region`` in ``cache``
        (evicting LRU)."""
        while not cache.has(region):
            victims = cache.choose_victims(region.nbytes)
            if not victims:
                cache.insert(region)
                break
            for victim in victims:
                # The victim may have been evicted by a concurrent staging
                # while we were writing a previous one back.
                if not cache.has(victim.region):
                    continue
                yield from self._evict(victim.region, cache)
        cache.pin(region)

    def _evict(self, region: Region, cache: SoftwareCache):
        space = cache.space
        ent = cache.entry_or_none(region)
        if ent is None or ent.pin_count > 0:
            return
        dead = False
        if ent.dirty:
            dm = self.datamove
            if dm is not None and dm.may_elide_writeback(region):
                # Dead version: a live task will overwrite it and no live
                # task reads it — drop without moving a byte to the host.
                dm.count_elision(region)
                cache.clear_dirty(region)
                dead = True
            else:
                yield from self._writeback(region, space, cache,
                                           place=self.rt.place_of(space))
        ent = cache.entry_or_none(region)
        if ent is not None and ent.pin_count == 0:
            self._drop_entry(region, space, cache, dead=dead)

    def _drop_entry(self, region: Region, space: AddressSpace,
                    cache: SoftwareCache, dead: bool = False) -> None:
        cache.remove(region)
        if self.directory.is_current(region, space):
            if dead:
                self.directory.record_discard(region, space)
            else:
                self.directory.record_drop(region, space)
        space.drop(region)
        for fn in self.probes.evict:
            fn(region, space, dead)

    def _writeback(self, region: Region, space: AddressSpace,
                   cache: SoftwareCache, place):
        """Copy a (possibly dirty) region from a device to its node host."""
        host = self.rt.host_space(space.node_index)
        if not self.directory.is_current(region, host):
            yield from self._move_leg(region, space, host, place)
            self.directory.record_copy(region, host)
        cache.mark_clean(region)

    # ------------------------------------------------------------------
    # Fetch path resolution
    # ------------------------------------------------------------------
    def fetch(self, region: Region, dst: AddressSpace, place=None):
        """Process generator: bring the current version of ``region`` to
        ``dst`` (directory updated; in-flight fetches deduplicated)."""
        if self.directory.is_current(region, dst):
            return
        version = self.directory.version(region)
        key = (id(dst), region.key, version)
        pending = self._inflight.get(key)
        if pending is not None:
            self.rt.metrics.inc("coherence.dedup_hits")
            yield pending
            return
        done = Event(self.env)
        self._inflight[key] = done
        try:
            try:
                yield from self._fetch_path(region, dst, place)
            except RegionLostError:
                # Every copy died with a device; if the fault engine is
                # replaying the producer, wait for the restored version
                # and retry the path — otherwise the loss is fatal.
                restore = (self.rt.faults.wait_restored(region)
                           if self.rt.faults is not None else None)
                if restore is None:
                    raise
                self.rt.metrics.inc("coherence.lost_region_waits")
                yield restore
                yield from self._fetch_path(region, dst, place)
            if not dst.failed:
                self.directory.record_copy(region, dst)
        finally:
            del self._inflight[key]
            done.succeed()

    def _pick_source(self, region: Region, dst: AddressSpace) -> AddressSpace:
        holders = self.directory.holders(region)
        if not holders:
            raise RegionLostError(f"no holder for {region!r}")
        # Deterministic tie-breaks: frozenset iteration order is id-based,
        # and process address layout (ASLR) makes it vary *per process* —
        # any workload with genuinely ambiguous multi-holder reads (e.g.
        # Cholesky panel broadcasts) would otherwise pick different
        # sources, and therefore different makespans, on every run.  The
        # historical figure workloads never hit an ambiguous choice, so
        # sorting keeps their golden makespans bit-identical.
        holders = sorted(holders, key=lambda s: s.name)
        same_node = [s for s in holders if s.node_index == dst.node_index]
        for s in same_node:
            if s.kind == "host":
                return s
        if same_node:
            return same_node[0]
        # Remote: prefer a host copy; prefer the master among hosts.
        hosts = [s for s in holders if s.kind == "host"]
        if hosts:
            masters = [s for s in hosts if s.node_index == 0]
            return masters[0] if masters else hosts[0]
        return next(iter(holders))

    def _fetch_path(self, region: Region, dst: AddressSpace, place):
        src = self._pick_source(region, dst)
        if src.node_index == dst.node_index:
            if src.kind == "gpu" and dst.kind == "gpu":
                # Through host memory (no peer-to-peer DMA in CUDA 3.2).
                # Recursing through fetch deduplicates the drain leg when
                # several consumers pull the same producer copy at once.
                host = self.rt.host_space(src.node_index)
                yield from self.fetch(region, host, self.rt.place_of(src))
                yield from self._move_leg(region, host, dst, place)
            else:
                yield from self._move_leg(region, src, dst, place)
            return
        # Cross-node path: secure a host-level copy on the source node
        # (dedup'd), wire it over, then descend to the device if needed.
        if src.kind == "gpu":
            src_host = self.rt.host_space(src.node_index)
            yield from self.fetch(region, src_host,
                                   self.rt.place_of(src))
            src = src_host
        dst_host = self.rt.host_space(dst.node_index)
        if src is not dst_host:
            if dst is not dst_host:
                # Let the host-level fetch dedup across this node's
                # consumers, then do the local PCIe leg.
                yield from self.fetch(region, dst_host, place)
            else:
                yield from self._wire(region, src, dst_host)
        if dst is not dst_host:
            yield from self._move_leg(region, dst_host, dst, place)

    def _wire(self, region: Region, src_host: AddressSpace,
              dst_host: AddressSpace):
        """Node-to-node leg, honoring the MtoS/StoS configuration."""
        src_n, dst_n = src_host.node_index, dst_host.node_index
        direct = (self.config.slave_to_slave
                  or src_n == 0 or dst_n == 0)
        if direct:
            yield from self._net_copy(region, src_host, dst_host)
            return
        # Master-routed: slave -> master -> slave (two wire legs through the
        # master's NIC ports, which is exactly the Fig. 9 bottleneck).
        master = self.rt.master_host
        if not self.directory.is_current(region, master):
            yield from self._net_copy(region, src_host, master)
            self.directory.record_copy(region, master)
        yield from self._net_copy(region, master, dst_host)

    # ------------------------------------------------------------------
    # Physical legs
    # ------------------------------------------------------------------
    def _net_copy(self, region: Region, src: AddressSpace,
                  dst: AddressSpace):
        am = self.rt.am
        assert am is not None, "network leg without a cluster fabric"
        start = self.env.now
        yield am.request(src.node_index, dst.node_index, "nanos.region_data",
                         region, src, dst, payload_bytes=region.nbytes)
        link = f"net:{src.node_index}->{dst.node_index}"
        self._count_leg(link, region.nbytes)
        for fn in self.probes.transfer_done:
            fn(region, link, start, self.env.now)

    def _move_leg(self, region: Region, src: AddressSpace,
                  dst: AddressSpace, place):
        """Same-node leg: host<->GPU DMA (or a pure host copy)."""
        if src is dst:
            return
        env = self.env
        start = env._now
        move = self._moves.get((src, dst))
        if move is None:
            move = self._moves[(src, dst)] = self._resolve_move(src, dst)
        link, manager, direction = move
        if manager is None:
            node = self.rt.machine.nodes[src.node_index]
            yield from node.host_copy(region.nbytes)
        else:
            yield from manager.dma(region.nbytes, direction)
        if self.config.functional:
            dst.write(region, src.read(region))
        self._count_leg(link, region.nbytes)
        for fn in self.probes.transfer_done:
            fn(region, link, start, env._now)

    def _resolve_move(self, src: AddressSpace, dst: AddressSpace) -> tuple:
        """``(link label, GPU manager, direction)`` of the same-node legs
        from ``src`` to ``dst``; the manager is None for a host copy."""
        link = f"link:{src.name}->{dst.name}"
        if src.kind == "host" and dst.kind == "host":
            return link, None, None
        gpu_space = dst if dst.kind == "gpu" else src
        direction = "h2d" if dst.kind == "gpu" else "d2h"
        return link, self.rt.gpu_manager_of(gpu_space), direction
