"""The ``adaptive`` meta-scheduler: metrics-driven policy switching.

Closes the observability loop: the counters the runtime already publishes
are *consumed* here to pick the scheduling policy mid-run.

It is the scheduler core plus a controller: the core runs one row of the
policy table at a time (``affinity`` to begin with, then ``cp`` or ``ws``
as the signals say) on one set of queues.  Every ``INTERVAL`` scheduler
events the window's signals are read:

* **starvation** — fraction of worker polls that returned no task while
  tasks were still live.  Starving workers with *shallow* ready queues
  mean the run is readiness-bound: switch to ``cp`` so the tasks that
  release the most work run first.  Starving workers with *deep* ready
  queues mean the work is placed where nobody is idle: switch to ``ws``
  and let thieves re-balance.
* **spread** — max/mean bottom level over a sample of pending tasks (the
  core's :class:`~.critical_path.BottomLevelEstimator`).  A large spread
  means ordering matters: prefer ``cp`` even before starvation shows.
* low starvation — locality is king again: fall back to ``affinity``.

A switch needs ``HYSTERESIS`` consecutive agreeing evaluations, so one
noisy window cannot thrash the queues.  Switching drains every queue,
adopts the new row and re-places the tasks (in ``tid`` order) — nothing is
lost, which the chaos suite exercises under faults.

The controller reads only scheduler-side signals and its own registry; the
cache write policy is not its business (it is fixed for the run, see
docs/DATAMOVE.md, "No run-time write-mode switch").
"""

from __future__ import annotations

from itertools import islice
from typing import Optional

from ...memory.directory import Directory
from ..task import Task
from .base import Scheduler, WorkerProtocol
from .policies import POLICIES

__all__ = ["AdaptiveScheduler"]

#: scheduler events (submissions + polls) between signal evaluations.
INTERVAL = 24

#: consecutive agreeing evaluations required before a policy switch — the
#: anti-thrash guard.
HYSTERESIS = 2

#: starvation fraction above which the run counts as starving, and below
#: which locality (affinity) is safe again.
STARVE_HIGH = 0.5
STARVE_LOW = 0.15

#: bottom-level max/mean ratio above which ordering is deemed critical.
SPREAD_HIGH = 4.0

#: pending-task sample size for the spread signal.
SPREAD_SAMPLE = 32


class AdaptiveScheduler(Scheduler):
    info_prefix = "adaptive:"

    def __init__(self, notify, directory: Directory, steal: bool = True,
                 metrics=None):
        super().__init__(notify, directory, POLICIES["affinity"],
                         steal=steal, metrics=metrics)
        #: tid -> task for everything submitted but not yet dispatched
        #: (the spread-signal sample).
        self._ready: dict[int, Task] = {}
        self._since = 0          # events since the last evaluation
        self._polls = 0
        self._idle_polls = 0
        self._want: Optional[str] = None
        self._want_streak = 0

    # -- protocol ---------------------------------------------------------
    def submit(self, task: Task) -> None:
        super().submit(task)
        self._ready[task.tid] = task
        self._since += 1
        if self._since >= INTERVAL:
            self._evaluate()

    def task_finished(self, task: Task, worker: WorkerProtocol,
                      newly_ready: list[Task]) -> None:
        # Policy fact: the estimator is refreshed on every finished task
        # whichever row is active — _spread() samples it under ``affinity``
        # and ``ws`` too, and a bottom level is memoized at the EMA of the
        # moment it is first asked for.
        self.estimator.refresh()
        for t in newly_ready:
            self.submit(t)

    def next_task(self, worker: WorkerProtocol) -> Optional[Task]:
        task = super().next_task(worker)
        self._polls += 1
        self._since += 1
        if task is not None:
            self._ready.pop(task.tid, None)
        elif self._live_tasks() > 0:
            self._idle_polls += 1
        if self._since >= INTERVAL:
            self._evaluate()
        return task

    # -- signals ----------------------------------------------------------
    def _live_tasks(self) -> float:
        # Without a runtime publishing the gauge, assume work is live:
        # starvation then measures raw idling.
        return self.metrics.value("runtime.tasks_live", 1)

    def _spread(self) -> float:
        if not self._ready:
            return 1.0
        sample = list(islice(self._ready.values(), SPREAD_SAMPLE))
        levels = [self.estimator.bottom_level(t) for t in sample]
        mean = sum(levels) / len(levels)
        return (max(levels) / mean) if mean > 0 else 1.0

    def _evaluate(self) -> None:
        polls, idle = self._polls, self._idle_polls
        self._since = self._polls = self._idle_polls = 0
        starvation = (idle / polls) if polls else 0.0
        depth = self._pending
        spread = self._spread()
        self.metrics.inc("scheduler.adaptive.evaluations")
        self.metrics.set_gauge("scheduler.adaptive.starvation", starvation)
        self.metrics.set_gauge("scheduler.adaptive.ready_depth", depth)
        self.metrics.set_gauge("scheduler.adaptive.spread", spread)
        want = self.policy.name
        if starvation >= STARVE_HIGH:
            # Starving: shallow queues mean too little is ready (release
            # the critical path), deep queues mean it is parked wrong.
            want = "cp" if depth <= len(self.workers) else "ws"
        elif starvation <= STARVE_LOW:
            want = "affinity"
        if spread >= SPREAD_HIGH and depth > 0:
            want = "cp"
        if want != self.policy.name:
            self._want_streak = (self._want_streak + 1
                                 if want == self._want else 1)
            self._want = want
            if self._want_streak >= HYSTERESIS:
                self._switch(want)
        else:
            self._want, self._want_streak = None, 0

    def _switch(self, name: str) -> None:
        self._want, self._want_streak = None, 0
        moved = self.drain_all()
        self.set_policy(POLICIES[name])
        self.metrics.inc("scheduler.adaptive.switches")
        # Policy fact: re-placed tasks wake their device's waiters like a
        # submission does, but they are neither new ready submissions nor
        # events of the controller's evaluation window.
        for task in moved:
            self._place(self, task)
            self._pending += 1
            self._notify(task.device)
        # Back to the level drain_all found, so no new high-water mark.
        self._g_pending.value += len(moved)
