"""Workload specs: the pure-data description of a fuzzed task graph.

A :class:`WorkloadSpec` is everything needed to rebuild one random
workload — object tilings plus an ordered tuple of :class:`OpSpec`
records — with no live runtime objects inside, so specs are hashable,
picklable, comparable and printable.  The same spec drives three
interpreters that must agree:

* :func:`repro.dagfuzz.runner.run_workload` — the full runtime stack;
* :func:`repro.dagfuzz.runner.sequential_reference` — the serial oracle;
* :func:`repro.dagfuzz.shrink.shrink` — structural minimization.

Region identity is a flat integer: object ``o`` is tiled into
``regions_per_object[o]`` disjoint regions of ``region_lens[o]`` elements
each, and region ids number all tiles object-major.  Tilings are fixed
per spec (never per op) because the memory model only supports
equal-or-disjoint region overlap — every op touching tile ``r`` names the
exact same ``(start, length)`` window.

Value model: object ``o`` starts as ``float32(o + 1)`` everywhere, and
every op writes a single constant to its whole output region, computed
from small exact integers (mod :data:`MODULUS`), so a region is *always*
constant-valued, sums are exact in float64, and the differential oracle
can demand bit-identical buffers — divergences never wash out in float
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

__all__ = ["OpSpec", "WorkloadSpec", "RegionInfo", "MODULUS",
           "WAIT_KINDS", "task_count"]

#: modulus keeping every buffer value a small exact integer.
MODULUS = 1021

#: recognised ``wait_after`` markers (``None`` = no wait after the op).
WAIT_KINDS = ("on", "on_noflush", "all", "all_noflush")


@dataclass(frozen=True)
class OpSpec:
    """One task: write ``out`` from ``ins`` (optionally its own old value).

    ``children`` makes this a decomposing parent task: the children run
    on the parent's image in their own sibling dependency scope, after
    the parent's body.  ``unused`` regions are declared as inputs but
    never read — legal, pure false-dependency pressure (and the
    sanitizer's ``unused-clause`` target).
    """

    out: int                          #: output region id
    ins: tuple = ()                   #: input region ids (ordered, unique)
    seed: int = 0                     #: per-op value seed
    device: str = "smp"               #: ``smp`` | ``cuda``
    cost: float = 1e-6                #: simulated kernel seconds
    inout: bool = False               #: out is inout (old value feeds in)
    unused: tuple = ()                #: declared-but-never-read inputs
    children: tuple = ()              #: nested OpSpecs (decomposition)
    wait_after: Optional[str] = None  #: one of WAIT_KINDS (top level only)

    def __post_init__(self):
        if self.device not in ("smp", "cuda"):
            raise ValueError(f"bad device {self.device!r}")
        if self.wait_after is not None and self.wait_after not in WAIT_KINDS:
            raise ValueError(f"bad wait_after {self.wait_after!r}")
        if self.out in self.ins or self.out in self.unused:
            raise ValueError("out region may not also be an input")
        if set(self.ins) & set(self.unused):
            raise ValueError("ins and unused overlap")
        if len(set(self.ins)) != len(self.ins):
            raise ValueError("duplicate input region")

    def footprint(self) -> frozenset:
        """Every region id this op or any descendant touches."""
        regions = {self.out, *self.ins, *self.unused}
        for child in self.children:
            regions |= child.footprint()
        return frozenset(regions)


@dataclass(frozen=True)
class RegionInfo:
    """Resolved placement of one region id inside its object."""

    rid: int
    obj_index: int
    start: int
    length: int


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete fuzzed workload (pure data, picklable)."""

    num_objects: int
    regions_per_object: tuple
    region_lens: tuple
    ops: tuple = ()
    #: provenance, for replay messages (not semantics).
    seed: Optional[int] = None
    profile: Optional[str] = None
    #: deliberate mis-annotation mode, applied to the last top-level op
    #: (tests/sanitizer/test_fuzz_annotations.py plants it).
    mis: Optional[str] = None

    def __post_init__(self):
        if len(self.regions_per_object) != self.num_objects:
            raise ValueError("regions_per_object length mismatch")
        if len(self.region_lens) != self.num_objects:
            raise ValueError("region_lens length mismatch")
        nr = self.num_regions
        for op in self._walk():
            for rid in op.footprint():
                if not 0 <= rid < nr:
                    raise ValueError(f"region id {rid} out of range 0..{nr-1}")

    # -- region table ------------------------------------------------------
    @property
    def num_regions(self) -> int:
        return sum(self.regions_per_object)

    def regions(self) -> "list[RegionInfo]":
        """The object-major region table, index == region id."""
        table = []
        for o in range(self.num_objects):
            ln = self.region_lens[o]
            for k in range(self.regions_per_object[o]):
                table.append(RegionInfo(rid=len(table), obj_index=o,
                                        start=k * ln, length=ln))
        return table

    def object_elements(self, o: int) -> int:
        return self.regions_per_object[o] * self.region_lens[o]

    # -- traversal ---------------------------------------------------------
    def _walk(self):
        def rec(ops):
            for op in ops:
                yield op
                yield from rec(op.children)
        yield from rec(self.ops)

    def replaced(self, **changes) -> "WorkloadSpec":
        return replace(self, **changes)


def task_count(spec_or_ops) -> int:
    """Total task count, nested children included."""
    ops = (spec_or_ops.ops if isinstance(spec_or_ops, WorkloadSpec)
           else spec_or_ops)
    return sum(1 + task_count(op.children) for op in ops)
