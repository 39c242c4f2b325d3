"""Known-bug-class injectors: the fuzzer's self-test.

A fuzzer that has never caught a bug proves nothing.  Each mutation here
re-introduces one classic runtime bug for the duration of a ``with``
block, by patching the one chokepoint that implements the corresponding
guarantee:

``drop_arc``
    The dependency graph silently drops the first read-after-write arc it
    would otherwise create — the classic lost-dependence bug.  The reader
    can now run before (or concurrently with) its producer.
``stale_cache_read``
    ``Directory.record_write`` stops invalidating other replicas: a write
    bumps the version but every old holder still looks current, so later
    reads (and the final flush) may be sourced from a stale copy — the
    classic missing-invalidation coherence bug.
``skip_writeback``
    Transfers into *canonical* host memory are silently dropped
    (``HostSpace.write`` no-ops) while the directory still records them
    as done — the classic skipped / lost write-back.  Device-resident
    results never reach the master's memory.

All three are deterministic (no randomness, no wall clock), so a seed
that exposes a mutation exposes it on every run — which is what lets the
shrinker re-evaluate candidates reliably.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..memory.directory import Directory
from ..memory.space import HostSpace
from ..runtime.dependences import DependencyGraph
from ..runtime.task import TaskState

__all__ = ["MUTATIONS", "null_mutation", "drop_arc", "stale_cache_read",
           "skip_writeback"]


@contextmanager
def null_mutation():
    yield


@contextmanager
def drop_arc():
    """Drop the first RAW arc each dependency graph would create."""
    orig = DependencyGraph._add_arc

    def patched(self, pred, succ, region, kind):
        if (kind == "raw" and not getattr(self, "_dagfuzz_dropped", False)
                and pred.state is not TaskState.FINISHED and pred is not succ
                and not (pred.successors and pred.successors[-1] is succ)):
            # Would have created a real arc; lose it instead.  One drop
            # per graph instance keeps the failure minimal and focused.
            self._dagfuzz_dropped = True
            return False
        return orig(self, pred, succ, region, kind)

    DependencyGraph._add_arc = patched
    try:
        yield
    finally:
        DependencyGraph._add_arc = orig


@contextmanager
def stale_cache_read():
    """Writes stop invalidating the other holders' replicas."""
    orig = Directory.record_write

    def patched(self, region, space, producer=None):
        ent = self.entry(region)
        ent.version += 1
        ent.producer = producer
        ent.discarded = False
        ent.holders.add(space)        # BUG: stale holders stay "current"
        self._count("writes_recorded")

    Directory.record_write = patched
    try:
        yield
    finally:
        Directory.record_write = orig


@contextmanager
def skip_writeback():
    """Write-backs (and flushes) into canonical host memory vanish."""
    orig = HostSpace.write

    def patched(self, region, data):
        if self.canonical:            # BUG: the payload is dropped
            return
        orig(self, region, data)

    HostSpace.write = patched
    try:
        yield
    finally:
        HostSpace.write = orig


#: name -> context-manager factory (the CLI's ``--mutate`` choices).
MUTATIONS = {
    "drop_arc": drop_arc,
    "stale_cache_read": stale_cache_read,
    "skip_writeback": skip_writeback,
}

