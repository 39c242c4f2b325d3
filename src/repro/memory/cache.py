"""Per-device software caches (paper Section III.C.3).

Each device with a separate address space has a software *cache* that tracks
which regions are resident, so redundant transfers are skipped.  Caches work
in three modes, matching the evaluation's sweep:

* ``nocache`` — data is moved in before and out after every task; nothing is
  kept resident;
* ``wt`` (write-through) — reads are cached, but every write is immediately
  propagated to host memory;
* ``wb`` (write-back, the default) — writes stay on the device marked dirty
  and are written back as late as possible (on eviction or on a flush).

The cache is a state machine only: it decides hits, misses, and LRU victims.
The coherence layer performs the actual (simulated-time) transfers.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum

from ..metrics import CounterRegistry
from .region import Region, RegionKey
from .space import AddressSpace

__all__ = ["CachePolicy", "CacheEntry", "SoftwareCache", "CacheCapacityError"]


class CachePolicy(str, Enum):
    NO_CACHE = "nocache"
    WRITE_THROUGH = "wt"
    WRITE_BACK = "wb"

    @classmethod
    def parse(cls, value: "str | CachePolicy") -> "CachePolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            names = ", ".join(p.value for p in cls)
            raise ValueError(
                f"unknown cache policy {value!r}; expected one of {names}"
            ) from None


class CacheCapacityError(Exception):
    """A task's working set does not fit in the device memory."""


@dataclass
class CacheEntry:
    region: Region
    dirty: bool = False
    pin_count: int = 0

    @property
    def nbytes(self) -> int:
        return self.region.nbytes

    @property
    def evictable(self) -> bool:
        return self.pin_count == 0


class SoftwareCache:
    """Residency tracking + LRU replacement for one device address space.

    Entries live in an :class:`~collections.OrderedDict` kept in
    least-recently-used order (every hit/insert is an O(1) ``move_to_end``),
    so victim selection walks exactly the candidates it returns instead of
    re-sorting the whole cache per eviction.

    Statistics live in the counter registry under ``cache.<space name>.*``
    (``metrics=None`` means a private one); read them with
    ``metrics.value(name)``.
    """

    def __init__(self, space: AddressSpace, capacity: int,
                 policy: "CachePolicy | str" = CachePolicy.WRITE_BACK,
                 metrics=None):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.space = space
        self.capacity = capacity
        self.policy = CachePolicy.parse(policy)
        #: least-recently-used first (touch == move_to_end).
        self._entries: OrderedDict[RegionKey, CacheEntry] = OrderedDict()
        self.bytes_used = 0
        #: optional re-fetch cost estimator ``CacheEntry -> float`` (set by
        #: the datamove layer when cost-aware eviction is enabled).  When
        #: None, :meth:`choose_victims` runs the historical pure-LRU path.
        self.victim_cost_fn = None
        if metrics is None:
            metrics = CounterRegistry()
        #: the :class:`~repro.metrics.CounterRegistry` holding this cache's
        #: statistics, namespaced ``cache.<space name>.*``.
        self.metrics = metrics
        self._mprefix = f"cache.{space.name}"
        # Hit/miss counting sits on every access; bind the counter objects
        # once instead of a name lookup per lookup().
        self._c_hits = metrics.counter(f"{self._mprefix}.hits")
        self._c_misses = metrics.counter(f"{self._mprefix}.misses")
        #: the other instruments, each bound on its first use (one that is
        #: never used stays out of the snapshot).
        self._bound: dict = {}
        self._g_used = None

    def _count(self, what: str) -> None:
        c = self._bound.get(what)
        if c is None:
            c = self._bound[what] = self.metrics.counter(
                f"{self._mprefix}.{what}")
        c.value += 1

    def _track_usage(self) -> None:
        g = self._g_used
        if g is None:
            g = self._g_used = self.metrics.gauge(
                f"{self._mprefix}.bytes_used")
        g.set(self.bytes_used)

    # -- queries ---------------------------------------------------------
    def has(self, region: Region) -> bool:
        return region.key in self._entries

    def entry_or_none(self, region: Region) -> "CacheEntry | None":
        return self._entries.get(region.key)

    @property
    def bytes_free(self) -> int:
        return self.capacity - self.bytes_used

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 when nothing was accessed)."""
        hits = self._c_hits.value
        accesses = hits + self._c_misses.value
        return hits / accesses if accesses else 0.0

    # -- access path ------------------------------------------------------
    def lookup(self, region: Region, pin: bool = False) -> bool:
        """Record an access; True on hit (entry refreshed, and pinned when
        ``pin``), False on miss.  A task's staging pins every hit this
        way, so a hit costs one call."""
        key = region.key
        ent = self._entries.get(key)
        if ent is None:
            self._c_misses.value += 1
            return False
        self._entries.move_to_end(key)
        self._c_hits.value += 1
        if pin:
            ent.pin_count += 1
        return True

    def choose_victims(self, nbytes_needed: int) -> list[CacheEntry]:
        """LRU-order unpinned entries to evict so ``nbytes_needed`` fits.

        Raises :class:`CacheCapacityError` when even evicting everything
        evictable cannot make room (working set exceeds device memory).
        """
        if nbytes_needed <= self.bytes_free:
            return []
        victims: list[CacheEntry] = []
        freed = 0
        need = nbytes_needed - self.bytes_free
        if self.victim_cost_fn is not None:
            return self._choose_victims_by_cost(nbytes_needed, need)
        for ent in self._entries.values():   # LRU order by construction
            if not ent.evictable:
                continue
            victims.append(ent)
            freed += ent.nbytes
            if freed >= need:
                return victims
        raise CacheCapacityError(
            f"cannot fit {nbytes_needed} bytes in {self.space.name}: "
            f"{self.bytes_free} free, {freed} evictable"
        )

    def _choose_victims_by_cost(self, nbytes_needed: int,
                                need: int) -> list[CacheEntry]:
        """Cost-aware victim selection: collect the LRU candidate prefix
        that covers the need, widen it to twice as many entries, then evict
        cheapest-to-refetch first.  The sort is stable, so entries with
        equal cost keep their LRU order — pure LRU is the tie-break, not
        the other way round."""
        candidates = [e for e in self._entries.values() if e.evictable]
        freed = 0
        prefix = 0
        for ent in candidates:
            prefix += 1
            freed += ent.nbytes
            if freed >= need:
                break
        if freed < need:
            raise CacheCapacityError(
                f"cannot fit {nbytes_needed} bytes in {self.space.name}: "
                f"{self.bytes_free} free, {freed} evictable"
            )
        pool = candidates[:min(len(candidates), 2 * prefix)]
        pool.sort(key=self.victim_cost_fn)
        victims: list[CacheEntry] = []
        freed = 0
        for ent in pool:
            victims.append(ent)
            freed += ent.nbytes
            if freed >= need:
                break
        self._count("cost_aware_selections")
        return victims

    def insert(self, region: Region, dirty: bool = False) -> CacheEntry:
        """Add a resident entry.  Space must already have been made."""
        ent = self._entries.get(region.key)
        if ent is not None:
            self._entries.move_to_end(region.key)
            if dirty:
                ent.dirty = True
            return ent
        if region.nbytes > self.bytes_free:
            raise CacheCapacityError(
                f"insert of {region!r} ({region.nbytes}B) exceeds free space "
                f"({self.bytes_free}B) in {self.space.name}; evict first"
            )
        ent = CacheEntry(region=region, dirty=dirty)
        self._entries[region.key] = ent
        self.bytes_used += region.nbytes
        self._count("inserts")
        self._track_usage()
        return ent

    def remove(self, region: Region) -> None:
        ent = self._entries.get(region.key)
        if ent is not None:
            if ent.pin_count:
                raise RuntimeError(f"cannot remove pinned entry {region!r}")
            del self._entries[region.key]
            self.bytes_used -= ent.nbytes
            self._count("evictions")
            self._track_usage()

    def invalidate_all(self) -> int:
        """Drop every entry unconditionally — pinned, dirty, everything.

        This models a device loss: the data is gone, so there is nothing
        to write back and pins are meaningless.  Returns the number of
        entries discarded."""
        count = len(self._entries)
        self._entries.clear()
        self.bytes_used = 0
        if count:
            self._count("fault_invalidations")
        self._track_usage()
        return count

    # -- pinning (entries in use by a running task) -----------------------
    def pin(self, region: Region) -> None:
        self._entries[region.key].pin_count += 1

    def unpin(self, region: Region) -> None:
        ent = self._entries[region.key]
        if ent.pin_count <= 0:
            raise RuntimeError(f"unpin without pin on {region!r}")
        ent.pin_count -= 1

    # -- dirty tracking ----------------------------------------------------
    def mark_dirty(self, region: Region) -> None:
        self._entries[region.key].dirty = True

    def mark_clean(self, region: Region) -> None:
        ent = self._entries.get(region.key)
        if ent is not None and ent.dirty:
            ent.dirty = False
            self._count("writebacks")

    def clear_dirty(self, region: Region) -> None:
        """Drop the dirty bit *without* counting a write-back: the datamove
        layer proved the version dead, so no bytes moved anywhere."""
        ent = self._entries.get(region.key)
        if ent is not None and ent.dirty:
            ent.dirty = False
            self._count("writebacks_elided")
