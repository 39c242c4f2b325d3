"""Vector clocks over the *guaranteed* ordering of an execution.

Each task is one clock context (its ``tid``); the main program is context
0.  A component value counts synchronization epochs: for a task, how many
times its body has (re-)executed — normally 1, more after fault-mode
re-execution — and for the main context, a monotone counter bumped at
every submission, host read and taskwait.

Only orderings the *program* asked for advance clocks: dependence arcs,
submission order (parent → child), and taskwait joins.  The interleaving
the simulator happened to sample contributes nothing, which is exactly
why a race is reported even when this run produced the right answer.
"""

from __future__ import annotations

__all__ = ["VectorClock"]


class VectorClock:
    """A sparse vector clock: missing components are zero."""

    __slots__ = ("_c",)

    def __init__(self, components: dict[int, int] | None = None):
        self._c: dict[int, int] = dict(components) if components else {}

    # -- reads -------------------------------------------------------------
    def get(self, ctx: int) -> int:
        return self._c.get(ctx, 0)

    def covers(self, ctx: int, tick: int) -> bool:
        """True when this clock has observed ``ctx``'s ``tick``-th epoch."""
        return self._c.get(ctx, 0) >= tick

    # -- updates -----------------------------------------------------------
    def copy(self) -> "VectorClock":
        return VectorClock(self._c)

    def set(self, ctx: int, tick: int) -> None:
        self._c[ctx] = tick

    def join(self, other: "VectorClock") -> "VectorClock":
        """In-place pointwise max (the synchronization join); returns self."""
        mine = self._c
        for ctx, tick in other._c.items():
            if mine.get(ctx, 0) < tick:
                mine[ctx] = tick
        return self

    # -- misc --------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{k}:{v}" for k, v in sorted(self._c.items()))
        return f"<VC {{{inner}}}>"
