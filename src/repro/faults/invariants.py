"""Coherence invariants the chaos suite checks after every recovery.

These are pure inspections (no simulated time): they read the directory
and the software caches and return a list of human-readable violations
(empty = consistent).  The fault engine calls :func:`check_coherence`
after each recovery action when the plan is ``paranoid``; the tests also
call :func:`check_quiescent` once a run has drained.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.runtime import Runtime

__all__ = ["check_coherence", "check_quiescent"]


def check_coherence(rt: "Runtime", pending: FrozenSet = frozenset()
                    ) -> list[str]:
    """Structural invariants that must hold at any instant.

    ``pending`` is the set of region keys whose restoration (producer
    replay) is in flight — those are allowed to have no holder yet.
    """
    problems: list[str] = []
    for ent in rt.directory._entries.values():
        if not ent.holders and ent.region.key not in pending \
                and not ent.discarded:
            # ``discarded`` marks a write-back-elided dead version: the
            # datamove layer proved nobody reads it before the pending
            # overwrite re-establishes holders, so the hole is legal.
            problems.append(f"{ent.region!r} has no holder")
        for space in ent.holders:
            if getattr(space, "failed", False):
                problems.append(
                    f"{ent.region!r} held by failed space {space.name}")
    dirty_spaces: dict = {}
    for cache in rt.all_caches():
        if getattr(cache.space, "failed", False):
            if cache._entries or cache.bytes_used:
                problems.append(
                    f"cache of failed {cache.space.name} not invalidated")
            continue
        used = sum(e.nbytes for e in cache._entries.values())
        if used != cache.bytes_used:
            problems.append(
                f"cache {cache.space.name} accounting drift: "
                f"{used} != {cache.bytes_used}")
        for ent in cache._entries.values():
            if not ent.dirty:
                continue
            # A dirty copy must be the current version (single writer).
            if not rt.directory.is_current(ent.region, cache.space):
                problems.append(
                    f"stale dirty copy of {ent.region!r} in "
                    f"{cache.space.name}")
            holders = dirty_spaces.setdefault(ent.region.key, [])
            holders.append(cache.space.name)
            if len(holders) > 1:
                problems.append(
                    f"multiple dirty copies of {ent.region!r}: {holders}")
    return problems


def check_quiescent(rt: "Runtime") -> list[str]:
    """Extra invariants once a run has fully drained: nothing pinned,
    nothing mid-restoration, and the master host current for everything
    (after a flushing taskwait)."""
    problems = check_coherence(rt)
    faults = rt.faults
    if faults is not None and faults._restores:
        problems.append(
            f"{len(faults._restores)} region restorations never completed")
    for cache in rt.all_caches():
        if getattr(cache.space, "failed", False):
            continue
        for ent in cache._entries.values():
            if ent.pin_count:
                problems.append(
                    f"{ent.region!r} still pinned ({ent.pin_count}) in "
                    f"{cache.space.name}")
    return problems
