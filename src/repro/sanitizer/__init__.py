"""Annotation sanitizer: dynamic race & false-dependency detection.

The runtime trusts ``input``/``output``/``inout`` clauses blindly — an
under-declared access is a silent data race and an over-declared one is
silent serialization.  This package observes what task bodies *actually*
do to their region buffers (functional mode), builds a happens-before
relation from the guarantees the program asked for (dependence arcs,
submission order, taskwait joins — *not* the sampled interleaving), and
cross-checks both against the declared clauses.

Usage (see docs/SANITIZER.md for the full guide)::

    from repro.sanitizer import install

    with install() as san:
        prog = Program(machine, config)     # picks up the sanitizer
        prog.run(main(prog))
    for finding in san.findings():
        print(finding.describe())

Or from the command line::

    python -m repro.sanitizer matmul stream perlin nbody

The sanitizer is a probe subscriber (:mod:`repro.runtime.probes`): an
unsubscribed point is an empty tuple, and no hook ever advances the
simulated clock, so enabled runs keep makespans bit-identical
(tests/sanitizer/test_no_overhead.py pins both).
"""

from .clock import VectorClock
from .core import (
    KINDS,
    MAIN_CTX,
    Finding,
    Sanitizer,
    install,
)
from .recorder import BufferWatch, WatchedBuffer, wrap
from .report import render_report

__all__ = [
    "VectorClock",
    "BufferWatch",
    "WatchedBuffer",
    "wrap",
    "Finding",
    "Sanitizer",
    "KINDS",
    "MAIN_CTX",
    "install",
    "render_report",
]
