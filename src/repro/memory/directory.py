"""The directory: who holds the current version of each region.

The paper (Section III.C.3) keeps "a hierarchical directory [that] keeps
track of the physical location of data and of the most current version".
Here the directory stores, per region, a monotonically increasing version
and the set of address spaces holding that version.  Node-level queries
(``nodes_with``) provide the hierarchical cluster view: from the master's
perspective a whole remote node is a single device.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from ..metrics import CounterRegistry
from .region import (
    PartialOverlapError,
    Region,
    RegionKey,
)
from .space import AddressSpace

__all__ = ["Directory", "DirectoryEntry"]


@dataclass
class DirectoryEntry:
    region: Region
    version: int = 0
    holders: set[AddressSpace] = field(default_factory=set)
    #: the task that produced the current version (fault-recovery lineage;
    #: None for registered-but-never-written data, whose home copy is the
    #: canonical source anyway).
    producer: object = None
    #: the current version was deliberately discarded without a write-back
    #: (datamove write-back elision proved it dead: no live reader, and a
    #: live task will overwrite it).  A discarded entry may legally have no
    #: holder; the next :meth:`Directory.record_write` clears the flag.
    discarded: bool = False


class Directory:
    """Location/version tracking for every region touched by any task."""

    def __init__(self, home: AddressSpace, metrics=None):
        #: Where data lives when nothing else holds it (master host memory).
        self.home = home
        self._entries: dict[RegionKey, DirectoryEntry] = {}
        #: Per object id, the distinct region shapes seen (for overlap
        #: checks), kept sorted by start for bisect lookups.
        self._shapes: dict[int, list[Region]] = {}
        if metrics is None:
            metrics = CounterRegistry()
        #: the :class:`~repro.metrics.CounterRegistry` the directory counts
        #: into (``metrics=None``: a private one), namespaced ``directory.*``.
        self.metrics = metrics
        #: bound counter for the hottest count (every affinity score and
        #: coherence check is a lookup): incrementing the live Counter
        #: object skips the registry's name lookup per call.
        self._c_lookups = metrics.counter("directory.lookups")
        #: the other ``directory.*`` counters, each bound on its first
        #: count (a counter that never counts stays out of the snapshot).
        self._bound: dict = {}

    def _count(self, what: str) -> None:
        c = self._bound.get(what)
        if c is None:
            c = self._bound[what] = self.metrics.counter(
                "directory." + what)
        c.value += 1

    # -- bookkeeping -----------------------------------------------------
    def entry(self, region: Region) -> DirectoryEntry:
        # The hottest directory call (every affinity score funnels through
        # it): one lookup counted, one dict probe; an unseen region's
        # entry is made by _create.
        self._c_lookups.value += 1
        ent = self._entries.get(region.key)
        if ent is None:
            ent = self._create(region)
        return ent

    def _create(self, region: Region) -> DirectoryEntry:
        self._check_shape(region)
        ent = DirectoryEntry(region=region, version=0, holders={self.home})
        self._entries[region.key] = ent
        self._count("entries_created")
        self.metrics.set_gauge("directory.entries", len(self._entries))
        return ent

    def _check_shape(self, region: Region) -> None:
        # The stored shapes are pairwise disjoint (entry() only calls this
        # for unseen keys), so after bisecting by start only the immediate
        # neighbours of the insertion point can overlap the new region.
        seen = self._shapes.setdefault(region.obj.oid, [])
        i = bisect_left(seen, (region.start, region.end),
                        key=lambda r: (r.start, r.end))
        if i < len(seen) and seen[i].key == region.key:
            return
        other = None
        if i > 0 and seen[i - 1].end > region.start:
            other = seen[i - 1]
        elif i < len(seen) and region.end > seen[i].start:
            other = seen[i]
        if other is not None:
            raise PartialOverlapError(
                f"region {region!r} partially overlaps previously used "
                f"{other!r}; unsupported (paper Section II.A.3)"
            )
        seen.insert(i, region)

    # -- queries -----------------------------------------------------------
    def version(self, region: Region) -> int:
        return self.entry(region).version

    def holders(self, region: Region) -> frozenset[AddressSpace]:
        return frozenset(self.entry(region).holders)

    def is_current(self, region: Region, space: AddressSpace) -> bool:
        # Every staged access asks this: entry()'s lookup, without its call.
        self._c_lookups.value += 1
        ent = self._entries.get(region.key)
        if ent is None:
            ent = self._create(region)
        return space in ent.holders

    def nodes_with(self, region: Region) -> frozenset[int]:
        """Node-level (hierarchical) view: nodes holding the latest version."""
        return frozenset(s.node_index for s in self.entry(region).holders)

    # -- transitions ---------------------------------------------------------
    def record_copy(self, region: Region, space: AddressSpace) -> None:
        """``space`` received the current version of ``region``."""
        self._count("copies_recorded")
        self.entry(region).holders.add(space)

    def record_write(self, region: Region, space: AddressSpace,
                     producer=None) -> None:
        """``space`` produced a new version; all other copies are stale.

        ``producer`` (a task) records who computed this version, so the
        fault engine can replay it if every copy is later lost."""
        ent = self.entry(region)
        ent.version += 1
        ent.producer = producer
        ent.discarded = False
        self._count("writes_recorded")
        if len(ent.holders) > 1:
            # Every other holder's copy just became stale.
            self.metrics.inc("directory.invalidations",
                             len(ent.holders) - (space in ent.holders))
        ent.holders = {space}

    def record_drop(self, region: Region, space: AddressSpace) -> None:
        """``space`` discarded its copy (eviction or invalidation).

        Dropping the last holder is illegal — the coherence layer must write
        data back before evicting the only current copy.
        """
        ent = self.entry(region)
        if space in ent.holders:
            if len(ent.holders) == 1:
                raise RuntimeError(
                    f"dropping the only current copy of {region!r} from "
                    f"{space!r} would lose data"
                )
            ent.holders.remove(space)
            self._count("drops_recorded")

    def record_discard(self, region: Region, space: AddressSpace) -> None:
        """``space`` discarded a *dead* version without writing it back.

        Unlike :meth:`record_drop` this may strand the region with no
        holder: the datamove layer's liveness proof guarantees no live task
        will ever read this version again (a live task will overwrite it,
        and the overwrite's :meth:`record_write` re-establishes holders
        before any flush can look).  The entry is marked ``discarded`` so
        coherence invariant checks know the hole is intentional."""
        ent = self.entry(region)
        if space in ent.holders:
            ent.holders.remove(space)
            if not ent.holders:
                ent.discarded = True
            self._count("discards_recorded")

    def invalidate_space(self, space: AddressSpace) -> list[Region]:
        """Discard every replica held by ``space`` (device loss).

        Unlike :meth:`record_drop` this may legitimately strand a region
        with no holder — the copy is genuinely gone.  Stranded regions are
        returned so the fault engine can restore them (promote nothing:
        there is nothing left to promote; it replays the producer)."""
        orphaned: list[Region] = []
        dropped = 0
        for ent in self._entries.values():
            if space in ent.holders:
                ent.holders.discard(space)
                dropped += 1
                if not ent.holders:
                    orphaned.append(ent.region)
        if dropped:
            self.metrics.inc("directory.fault_invalidations", dropped)
        return orphaned

    def peek(self, region: Region) -> "DirectoryEntry | None":
        """The entry for ``region`` if one exists — no side effects (entry()
        would create one, which read-only consumers must not)."""
        return self._entries.get(region.key)

    def all_regions(self) -> list[Region]:
        return [e.region for e in self._entries.values()]
