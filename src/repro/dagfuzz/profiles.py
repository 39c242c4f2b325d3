"""Named generation profiles: the knobs of the random-DAG distribution.

A profile bounds every structural dimension the generator draws from —
graph width and depth, fan-in, region tiling and footprint sizes, clause
mixes (inout / unused / nested / taskwait), the smp-vs-cuda split and the
kernel-cost spread.  Profiles are frozen pure data so a (seed, profile)
pair pins a workload forever.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FuzzProfile", "PROFILES"]


@dataclass(frozen=True)
class FuzzProfile:
    """Distribution bounds for :func:`repro.dagfuzz.generator.generate`."""

    name: str = "default"
    #: top-level op count range (inclusive).
    ops: tuple = (4, 16)
    #: object count range.
    objects: tuple = (2, 4)
    #: per-object tile count range.
    regions_per_object: tuple = (1, 3)
    #: per-object region length range (elements).
    region_len: tuple = (4, 16)
    #: max declared inputs per op (fan-in; actual draw is 0..max).
    max_inputs: int = 3
    #: chance an op re-reads a recently written region (locality / depth
    #: bias: high values chain ops into deep dependency paths).
    p_reuse: float = 0.6
    #: chance an op runs on a cuda device.
    p_cuda: float = 0.5
    #: chance the output clause is inout rather than out.
    p_inout: float = 0.3
    #: chance of one extra declared-but-unread input clause.
    p_unused: float = 0.15
    #: chance an op decomposes into children.
    p_nested: float = 0.0
    #: children per nested op (range) and max nesting depth.
    children: tuple = (2, 3)
    max_depth: int = 1
    #: chance of a taskwait_on after a top-level op (half of them noflush),
    #: and of a full taskwait.
    p_wait_on: float = 0.1
    p_wait_all: float = 0.05
    #: kernel cost range (simulated seconds, log-uniform).
    cost: tuple = (5e-7, 5e-5)

    def __post_init__(self):
        for lo, hi in (self.ops, self.objects, self.regions_per_object,
                       self.region_len, self.children):
            if lo < 1 or hi < lo:
                raise ValueError(f"bad range ({lo}, {hi}) in profile "
                                 f"{self.name!r}")
        if self.cost[0] <= 0 or self.cost[1] < self.cost[0]:
            raise ValueError("bad cost range")


#: the registry the CLI selects from.
PROFILES = {p.name: p for p in (
    # Balanced mix of everything except nesting.
    FuzzProfile(name="default"),
    # Many independent ops over many tiles: scheduler-width pressure.
    FuzzProfile(name="wide", ops=(12, 28), objects=(3, 5),
                regions_per_object=(2, 4), p_reuse=0.25, p_wait_on=0.05,
                p_wait_all=0.0),
    # Long read-after-write chains: depth / critical-path pressure.
    FuzzProfile(name="deep", ops=(10, 24), objects=(1, 2),
                regions_per_object=(1, 2), max_inputs=2, p_reuse=0.95,
                p_inout=0.5),
    # Decomposing parents with sibling scopes (paper Section III.D.1).
    FuzzProfile(name="nested", ops=(3, 8), p_nested=0.5,
                children=(2, 4), max_depth=2, p_cuda=0.35),
    # Ragged tilings and footprints, heavy clause mix: coherence pressure.
    FuzzProfile(name="irregular", ops=(6, 20), objects=(2, 5),
                regions_per_object=(1, 4), region_len=(2, 24),
                max_inputs=4, p_inout=0.45, p_unused=0.3, p_wait_on=0.2),
    # Sanitizer baseline: every clause exactly matches the body's accesses
    # (no unused inputs, no scope-over-declaring nested parents).
    FuzzProfile(name="clean", p_unused=0.0, p_nested=0.0),
)}
