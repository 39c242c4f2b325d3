"""Data objects and regions — the units of dependences and coherence.

A :class:`DataObject` is one user allocation (a matrix, a vector) registered
with the runtime.  A :class:`Region` is a contiguous element range of one
object; dependence clauses and copy clauses name regions.

Following the paper (Section II.A.3), regions referenced by different tasks
must either *match exactly* or be *disjoint*: the implementation "currently
does not support" partial overlap, and neither do we — we detect it and raise
:class:`PartialOverlapError` instead of computing wrong dependences silently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "DataObject",
    "Region",
    "RegionKey",
    "PartialOverlapError",
    "relation",
    "check_supported_overlap",
]

_object_ids = itertools.count()


class PartialOverlapError(Exception):
    """Two regions overlap without matching — unsupported by the model."""


@dataclass(frozen=True)
class DataObject:
    """One registered allocation, identified by a stable object id."""

    name: str
    num_elements: int
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float32))
    oid: int = field(default_factory=lambda: next(_object_ids))

    def __post_init__(self):
        if self.num_elements <= 0:
            raise ValueError(f"object {self.name!r} needs a positive size")
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        # Region intern table: every (start, length) range is materialized
        # once and shared.  Regions are immutable value objects keyed by
        # (oid, start, length), so sharing is safe, and the hot layers
        # (graph, directory, caches) then hash/compare one object identity
        # per access instead of re-deriving key/hash/nbytes per call site.
        object.__setattr__(self, "_regions", {})

    @property
    def whole(self) -> "Region":
        return self.region(0, self.num_elements)

    def region(self, start: int, length: int) -> "Region":
        r = self._regions.get((start, length))
        if r is None:
            r = self._regions[(start, length)] = Region(self, start, length)
        return r

    def __repr__(self) -> str:
        return f"<DataObject #{self.oid} {self.name!r} {self.num_elements}x{self.dtype}>"


#: Hashable identity of a region: (object id, start element, length).
RegionKey = tuple[int, int, int]


@dataclass(frozen=True, eq=False)
class Region:
    """A contiguous element range ``[start, start+length)`` of one object.

    Every hot lookup in the runtime (dependency graph, directory, caches)
    is keyed on the identity tuple ``key``, so it and the derived sizes are
    computed once at construction instead of on every access.
    :meth:`DataObject.region` interns regions, so the runtime never needs
    two equal ones.
    """

    obj: DataObject
    start: int
    length: int

    # Precomputed in __post_init__ (plain attributes, not dataclass fields).
    key: RegionKey = field(init=False, repr=False, compare=False)
    end: int = field(init=False, repr=False, compare=False)
    nbytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("region length must be positive")
        if self.start < 0 or self.start + self.length > self.obj.num_elements:
            raise ValueError(
                f"region [{self.start}, {self.start + self.length}) out of "
                f"bounds for {self.obj!r}"
            )
        key = (self.obj.oid, self.start, self.length)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "end", self.start + self.length)
        object.__setattr__(self, "nbytes",
                           self.length * self.obj.dtype.itemsize)

    def __repr__(self) -> str:
        return (f"<Region {self.obj.name}[{self.start}:{self.end}] "
                f"{self.nbytes}B>")


def relation(a: Region, b: Region) -> str:
    """Classify two regions: ``"equal"``, ``"disjoint"`` or ``"partial"``."""
    if a.obj.oid != b.obj.oid:
        return "disjoint"
    if a.start == b.start and a.length == b.length:
        return "equal"
    if a.end <= b.start or b.end <= a.start:
        return "disjoint"
    return "partial"


def check_supported_overlap(a: Region, b: Region,
                            context: Optional[str] = None) -> str:
    """Like :func:`relation` but raises on unsupported partial overlap."""
    rel = relation(a, b)
    if rel == "partial":
        where = f" ({context})" if context else ""
        raise PartialOverlapError(
            f"regions {a!r} and {b!r} partially overlap{where}; the OmpSs "
            "implementation reproduced here requires exact match or "
            "disjointness (paper Section II.A.3)"
        )
    return rel
