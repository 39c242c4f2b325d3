"""The ``adaptive`` meta-scheduler: metrics-driven policy switching.

Closes the observability loop (ROADMAP item 4): the counters the runtime
already publishes are *consumed* here to pick the scheduling policy — and,
optionally, the data-movement write mode — mid-run.

Three child policies are kept registered (affinity, critical-path,
work-stealing); exactly one is *active* and owns every queued task.  Every
``interval`` scheduler events the window's signals are read:

* **starvation** — fraction of worker polls that returned no task while
  tasks were still live.  Starving workers with *shallow* ready queues
  mean the run is readiness-bound: switch to ``cp`` so the tasks that
  release the most work run first.  Starving workers with *deep* ready
  queues mean the work is placed where nobody is idle: switch to ``ws``
  and let thieves re-balance.
* **spread** — max/mean bottom level over a sample of pending tasks (the
  shared :class:`~.critical_path.BottomLevelEstimator`).  A large spread
  means ordering matters: prefer ``cp`` even before starvation shows.
* low starvation — locality is king again: fall back to ``affinity``.

A switch needs ``hysteresis`` consecutive agreeing evaluations, so one
noisy window cannot thrash the queues.  Switching drains every queue of
the old policy and resubmits the tasks (in readiness ``tid`` order) to the
new one — nothing is lost, which the chaos suite exercises under faults.

With ``adaptive_datamove`` the same evaluation also drives the PR 6 data
movement controls: sustained write-back pressure while the transfer links
are busy enables write-back elision (``DataMover.elision``, reverted when
the pressure clears) — and, when the run was configured write-through,
switches the commit write mode to write-back outright
(:meth:`DataMover.set_write_mode`, one-way), so eager per-commit
device->host copies stop competing with the fetch traffic.  Both use the
same hysteresis as policy switches.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional

from ...memory.cache import CachePolicy
from ...memory.directory import Directory
from ..task import Task
from .affinity import AffinityScheduler
from .base import Scheduler, WorkerProtocol
from .critical_path import BottomLevelEstimator, CriticalPathScheduler
from .work_stealing import WorkStealingScheduler

__all__ = ["AdaptiveScheduler"]

#: starvation fraction above which the run counts as starving, and below
#: which locality (affinity) is safe again.
STARVE_HIGH = 0.5
STARVE_LOW = 0.15

#: bottom-level max/mean ratio above which ordering is deemed critical.
SPREAD_HIGH = 4.0

#: pending-task sample size for the spread signal.
SPREAD_SAMPLE = 32

#: link busy fraction of the window above which write-back pressure is
#: worth elision.
BUSY_HIGH = 0.5


class AdaptiveScheduler(Scheduler):
    name = "adaptive"

    def __init__(self, notify, directory: Directory, steal: bool = True,
                 rr_chunk: int = 1, metrics=None, interval: int = 24,
                 hysteresis: int = 2, adaptive_datamove: bool = False):
        super().__init__(notify, metrics=metrics)
        self.directory = directory
        self.interval = max(1, interval)
        self.hysteresis = max(1, hysteresis)
        self.adaptive_datamove = adaptive_datamove
        self._estimator = BottomLevelEstimator(metrics)
        # Children share the meta-scheduler's registry only through it:
        # metrics=None keeps them from double-counting ready_submissions
        # and pending against the instruments this class already owns.
        self.children: dict[str, Scheduler] = {
            "affinity": AffinityScheduler(notify, directory, steal=steal,
                                          rr_chunk=rr_chunk),
            "cp": CriticalPathScheduler(notify, directory, steal=steal,
                                        rr_chunk=rr_chunk,
                                        estimator=self._estimator),
            "ws": WorkStealingScheduler(notify, directory, steal=steal,
                                        rr_chunk=rr_chunk),
        }
        self.active = self.children["affinity"]
        self.switches = 0
        self._rt = None
        #: tid -> task for everything submitted but not yet dispatched
        #: (the spread-signal sample and the safety net for switches).
        self._ready: dict[int, Task] = {}
        self._since = 0          # events since the last evaluation
        self._polls = 0
        self._idle_polls = 0
        self._want: Optional[str] = None
        self._want_streak = 0
        self._dm_want: Optional[bool] = None
        self._dm_streak = 0
        self._dm_folded = (0.0, 0.0, 0.0)  # pressure, busy, sim-time
        self._wm_streak = 0                # write-mode switch streak
        if metrics is not None:
            metrics.set_info("scheduler.policy", f"adaptive:{self.active.name}")

    def attach_runtime(self, rt) -> None:
        """Give the meta-scheduler its signal sources (called by the owning
        image once the runtime exists)."""
        self._rt = rt

    # -- wiring (children stay in lock-step) ------------------------------
    def register_worker(self, worker: WorkerProtocol) -> None:
        super().register_worker(worker)
        for child in self.children.values():
            child.register_worker(worker)

    def blacklist(self, worker: WorkerProtocol) -> list[Task]:
        stranded = super().blacklist(worker)
        seen = {t.tid for t in stranded}
        for child in self.children.values():
            for task in child.blacklist(worker):
                if task.tid not in seen:
                    seen.add(task.tid)
                    stranded.append(task)
        return stranded

    def rebalance(self, worker: WorkerProtocol) -> list[Task]:
        moved = []
        for child in self.children.values():
            moved.extend(child.rebalance(worker))
        return moved

    def drain_unrunnable(self) -> list[Task]:
        stranded = super().drain_unrunnable()
        for child in self.children.values():
            stranded.extend(child.drain_unrunnable())
        return stranded

    # -- protocol ---------------------------------------------------------
    def submit(self, task: Task) -> None:
        self.tasks_submitted += 1
        if self._c_ready is not None:
            self._c_ready.value += 1
        self._ready[task.tid] = task
        self.active.submit(task)  # places and notifies
        if self._g_pending is not None:
            self._g_pending.set(self.pending)
        self._since += 1
        if self._since >= self.interval:
            self._evaluate()

    def task_finished(self, task: Task, worker: WorkerProtocol,
                      newly_ready: list[Task]) -> None:
        self._estimator.refresh()
        for t in newly_ready:
            self.submit(t)

    def next_task(self, worker: WorkerProtocol) -> Optional[Task]:
        task = self.active.next_task(worker)
        self._polls += 1
        self._since += 1
        if task is not None:
            self._ready.pop(task.tid, None)
        elif self._live_tasks() > 0:
            self._idle_polls += 1
        if self._since >= self.interval:
            self._evaluate()
        return task

    def peek_for(self, worker: WorkerProtocol, n: int) -> list[Task]:
        return self.active.peek_for(worker, n)

    @property
    def pending(self) -> int:
        return len(self.global_queue) + self.active.pending

    def recount_pending(self) -> int:
        return len(self.global_queue) + self.active.recount_pending()

    # -- signals ----------------------------------------------------------
    def _live_tasks(self) -> float:
        rt = self._rt
        if rt is None or rt.metrics is None:
            return 1.0  # assume live; starvation then measures raw idling
        return rt.metrics.value("runtime.tasks_live", 0)

    def _spread(self) -> float:
        if not self._ready:
            return 1.0
        sample = list(islice(self._ready.values(), SPREAD_SAMPLE))
        levels = [self._estimator.bottom_level(t) for t in sample]
        mean = sum(levels) / len(levels)
        return (max(levels) / mean) if mean > 0 else 1.0

    def _evaluate(self) -> None:
        polls, idle = self._polls, self._idle_polls
        self._since = self._polls = self._idle_polls = 0
        starvation = (idle / polls) if polls else 0.0
        depth = self.active.pending
        spread = self._spread()
        if self.metrics is not None:
            self.metrics.inc("scheduler.adaptive.evaluations")
            self.metrics.set_gauge("scheduler.adaptive.starvation", starvation)
            self.metrics.set_gauge("scheduler.adaptive.ready_depth", depth)
            self.metrics.set_gauge("scheduler.adaptive.spread", spread)
        want = self.active.name
        if starvation >= STARVE_HIGH:
            # Starving: shallow queues mean too little is ready (release
            # the critical path), deep queues mean it is parked wrong.
            want = "cp" if depth <= len(self.workers) else "ws"
        elif starvation <= STARVE_LOW:
            want = "affinity"
        if spread >= SPREAD_HIGH and depth > 0:
            want = "cp"
        if want != self.active.name:
            self._want_streak = (self._want_streak + 1
                                 if want == self._want else 1)
            self._want = want
            if self._want_streak >= self.hysteresis:
                self._switch(want)
        else:
            self._want, self._want_streak = None, 0
        self._evaluate_datamove()

    def _switch(self, name: str) -> None:
        old, new = self.active, self.children[name]
        self._want, self._want_streak = None, 0
        moved: list[Task] = []
        for worker in list(self.workers):
            moved.extend(old.rebalance(worker))
        moved.extend(old.drain_shared())
        self.active = new
        self.switches += 1
        if self.metrics is not None:
            self.metrics.inc("scheduler.adaptive.switches")
            self.metrics.set_info("scheduler.policy", f"adaptive:{name}")
        moved.sort(key=lambda t: t.tid)  # readiness order
        for task in moved:
            new.submit(task)

    # -- datamove write-mode switching ------------------------------------
    def _dm_signals(self) -> tuple[float, float, float]:
        rt = self._rt
        m = rt.metrics
        pressure = sum(c.value for name, c in m._counters.items()
                       if name.startswith("cache.")
                       and name.endswith((".writebacks", ".writebacks_elided")))
        pressure += m.value("datamove.writebacks_elided", 0)
        busy = sum(g.value for name, g in m._gauges.items()
                   if name.endswith(".busy_seconds"))
        return pressure, busy, rt.env.now

    def _evaluate_datamove(self) -> None:
        rt = self._rt
        if (not self.adaptive_datamove or rt is None
                or rt.datamove is None or rt.metrics is None):
            return
        pressure, busy, now = self._dm_signals()
        p0, b0, t0 = self._dm_folded
        self._dm_folded = (pressure, busy, now)
        window = now - t0
        if window <= 0:
            return
        busy_frac = (busy - b0) / window
        pressed = pressure > p0 and busy_frac >= BUSY_HIGH
        dm = rt.datamove
        # Write-through under pressure: each commit pays an eager device->
        # host write-back while the transfer links are already saturated.
        # Deferring those writes (write-back mode) is always recoverable —
        # eviction and flush still drain dirty data — so the switch is
        # one-way: reverting to eager writes would just recreate the
        # saturation that triggered it.
        if (pressed and dm.write_mode is None
                and rt.config.cache_policy is CachePolicy.WRITE_THROUGH):
            self._wm_streak += 1
            if self._wm_streak >= self.hysteresis:
                dm.set_write_mode(CachePolicy.WRITE_BACK)
                if self.metrics is not None:
                    self.metrics.inc("scheduler.adaptive.datamove_switches")
                    self.metrics.set_info("datamove.write_mode", "wb")
        else:
            self._wm_streak = 0
        # Write traffic while links are saturated: elide.  (Elided
        # write-backs keep counting as pressure, so success does not read
        # as quiet and flap the mode back off.)
        want = pressed
        if want == dm.elision:
            self._dm_want, self._dm_streak = None, 0
            return
        self._dm_streak = (self._dm_streak + 1
                           if want == self._dm_want else 1)
        self._dm_want = want
        if self._dm_streak >= self.hysteresis:
            dm.elision = want
            self._dm_want, self._dm_streak = None, 0
            if self.metrics is not None:
                self.metrics.inc("scheduler.adaptive.datamove_switches")
                self.metrics.set_info("datamove.elision",
                                      "on" if want else "off")
