"""The sanitizer engine: hooks, happens-before, and clause validation.

A :class:`Sanitizer` is a probe subscriber (:mod:`repro.runtime.probes`)
of one :class:`~repro.runtime.Runtime` (passed explicitly or installed
with :func:`install`).  It subscribes to:

* ``task_submitted`` — snapshots the submitter's vector clock (main
  context or parent task);
* ``dep_arc`` — provenance of every arc attempt ``(pred, succ, region,
  kind)``, including deduplicated ones;
* the ``watch_args`` interceptor — wraps region buffers for one execution
  attempt (re-execution resets watches);
* ``task_finished``, ``commit`` and ``transfer_issued``;
* ``taskwait`` — the synchronization joins;
* ``host_read`` — api data handles (``handle.np`` / ``view.np``).

None of them yields, sleeps, or touches the simulated clock: the
sanitizer is pure host-side bookkeeping, so enabling it cannot move a
single simulated timestamp (pinned by tests/sanitizer/test_no_overhead.py).

Validation (:meth:`Sanitizer.findings`) runs after the program and cross
checks three ways:

1. observed accesses vs declared clauses per task (under-declared
   reads/writes, unused clauses with an estimated makespan cost from the
   arc provenance, inout downgrades);
2. a vector-clock race check across tasks per region — only *guaranteed*
   orderings count, so a lucky interleaving does not hide a race;
3. host reads vs task writes (missing taskwait) and vs the directory
   (stale reads after a ``noflush`` taskwait).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from pathlib import Path

from ..runtime import probes
from .clock import VectorClock

__all__ = [
    "MAIN_CTX",
    "KINDS",
    "Finding",
    "Sanitizer",
    "install",
]

#: The main program's clock context (tasks use their tid, which starts at 1).
MAIN_CTX = 0

#: Finding kinds, in severity order (races first).
KINDS = (
    "under-declared-write",
    "under-declared-read",
    "race",
    "missing-taskwait",
    "stale-host-read",
    "unused-clause",
    "over-declared-inout",
)


@dataclass
class Finding:
    """One validated annotation problem (aggregated across repeats)."""

    kind: str           # one of KINDS
    task: str           # task label, "A ~ B" for races, "<main>" for host
    obj: str            # data object name
    detail: str         # human explanation
    where: str          # source attribution, e.g. "ompss.py:41 (scale)"
    regions: tuple[str, ...] = ()   # example regions (up to 3)
    count: int = 1      # occurrences folded into this finding
    cost: float | None = None       # est. serialization cost (false deps)
    time: float | None = None       # earliest relevant simulated time

    def describe(self) -> str:
        head = f"[{self.kind}] {self.task} / {self.obj}: {self.detail}"
        bits = [f"at {self.where}"]
        if self.regions:
            bits.append("regions " + ", ".join(self.regions))
        if self.count > 1:
            bits.append(f"x{self.count}")
        if self.cost is not None:
            bits.append(f"est. cost {self.cost:.6f}s")
        return head + " (" + "; ".join(bits) + ")"

    def to_dict(self) -> dict:
        """The eight JSON-friendly fields a report or a job bundle keeps."""
        return {"kind": self.kind, "task": self.task, "obj": self.obj,
                "detail": self.detail, "where": self.where,
                "count": self.count, "regions": list(self.regions),
                "cost": self.cost}


class _TaskRecord:
    """Everything the sanitizer knows about one submitted task."""

    __slots__ = (
        "task", "tid", "name", "declared", "copy_only", "submit_vc",
        "submit_time", "parent_tid", "preds", "children", "watches",
        "epoch", "start_vc", "final_vc", "start_time", "finish_time",
        "committed", "staged", "executed",
    )

    def __init__(self, task, submit_vc: VectorClock, submit_time: float,
                 parent_tid: int | None):
        self.task = task
        self.tid = task.tid
        self.name = task.codelet.name
        #: region key -> Access for dependence clauses.
        self.declared = {a.region.key: a for a in task.accesses}
        #: copy clauses with no matching dependence clause.
        self.copy_only = {c.region.key: c for c in task.copies
                          if c.region.key not in self.declared}
        self.submit_vc = submit_vc
        self.submit_time = submit_time
        self.parent_tid = parent_tid
        self.preds: set[int] = set()
        self.children: list[int] = []
        #: region key -> BufferWatch for the *latest* execution attempt.
        self.watches: dict = {}
        #: execution attempts so far (the task's clock component).
        self.epoch = 0
        self.start_vc: VectorClock | None = None
        self.final_vc: VectorClock | None = None
        self.start_time: float | None = None
        self.finish_time: float | None = None
        #: region key -> commit time (directory writes published).
        self.committed: dict = {}
        #: region keys whose input bytes were staged to the executing space.
        self.staged: set = set()
        self.executed = False

    @property
    def effective_epoch(self) -> int:
        """Epoch usable in HB queries even for never-executed tasks."""
        return max(self.epoch, 1)


@dataclass
class _HostRead:
    obj: object
    start: int
    end: int
    tick: int                    # main-context counter at the read
    snapshot: VectorClock        # main clock at the read
    time: float
    stale: list = field(default_factory=list)   # regions not host-current


def _body_of(task):
    """The function a task runs: its body, or its kernel's."""
    codelet = task.codelet
    fn = codelet.func
    if fn is None and codelet.kernel is not None:
        fn = getattr(codelet.kernel, "func", None)
    return fn


def _source_of(fn) -> str:
    """``file.py:line (func)`` attribution for a task body."""
    if fn is None:
        return "<no functional body>"
    try:
        filename = inspect.getsourcefile(fn)
        _, line = inspect.getsourcelines(fn)
        name = getattr(fn, "__name__", "?")
        return f"{Path(filename).name}:{line} ({name})"
    except (OSError, TypeError):
        return getattr(fn, "__qualname__", "<unknown>")


class Sanitizer:
    """One checking session: attach, run the program, read findings."""

    def __init__(self):
        self.rt = None
        self._records: dict[int, _TaskRecord] = {}
        self._host_reads: list[_HostRead] = []
        #: (pred tid, succ tid) -> set of (region key, arc kind) provenance.
        self._arc_prov: dict[tuple[int, int], set] = {}
        #: region key -> Region (for overlap queries and reporting).
        self._region_objs: dict = {}
        self._main_vc = VectorClock()
        self._main_counter = 0
        self._finished_unjoined: list[int] = []
        self._findings: list[Finding] | None = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, runtime) -> None:
        if self.rt is not None and self.rt is not runtime:
            raise RuntimeError(
                "a Sanitizer checks one Runtime; build a new one per run")
        self.rt = runtime

    def _now(self) -> float:
        return self.rt.env.now

    def _inc(self, name: str, value: int = 1) -> None:
        self.rt.metrics.inc(f"sanitizer.{name}", value)

    def _remember_regions(self, task) -> None:
        for acc in (*task.accesses, *task.copies):
            self._region_objs.setdefault(acc.region.key, acc.region)

    # ------------------------------------------------------------------
    # Probe points (none advances simulated time)
    # ------------------------------------------------------------------
    def task_submitted(self, task, parent) -> None:
        """A task entered a dependency graph (master or child scope)."""
        if parent is None:
            self._main_counter += 1
            self._main_vc.set(MAIN_CTX, self._main_counter)
            vc = self._main_vc.copy()
            parent_tid = None
        else:
            prec = self._records.get(parent.tid)
            base = None
            if prec is not None:
                base = prec.start_vc or prec.submit_vc
            vc = base.copy() if base is not None else VectorClock()
            parent_tid = parent.tid
        rec = _TaskRecord(task, vc, self._now(), parent_tid)
        self._records[task.tid] = rec
        if parent_tid is not None and parent_tid in self._records:
            self._records[parent_tid].children.append(task.tid)
        self._remember_regions(task)
        self._inc("tasks_tracked")

    def dep_arc(self, pred, succ, region, kind: str, created: bool) -> None:
        """Every arc attempt, deduplicated arcs included, so a
        multi-region arc's provenance names every contributing clause."""
        self._arc_prov.setdefault((pred.tid, succ.tid), set()).add(
            (region.key, kind))
        srec = self._records.get(succ.tid)
        if srec is not None and pred.tid in self._records:
            srec.preds.add(pred.tid)
        if created:
            self._inc("arcs_observed")

    def watch_args(self, task):
        """Interceptor: one execution attempt of ``task`` starts (watches
        reset, epoch bumped); returns the wrapper its resolved buffers pass
        through."""
        rec = self._records.get(task.tid)
        if rec is None:
            # Defensive: a task executed without passing through submit
            # hooks (hand-built graphs in tests) still gets a record.
            rec = _TaskRecord(task, self._main_vc.copy(), self._now(), None)
            self._records[task.tid] = rec
            self._remember_regions(task)
        rec.epoch += 1
        rec.watches = {}
        rec.executed = True
        rec.start_time = self._now()
        vc = rec.submit_vc.copy()
        for ptid in rec.preds:
            prec = self._records.get(ptid)
            if prec is not None:
                vc.join(self._final(prec))
        vc.set(rec.tid, rec.epoch)
        rec.start_vc = vc
        rec.final_vc = None
        self._inc("tasks_instrumented")
        return lambda region, buffer: self._watch_buffer(rec, region, buffer)

    def _watch_buffer(self, rec: _TaskRecord, region, buffer):
        """Wrap one resolved region buffer for ``rec``'s current attempt."""
        from .recorder import BufferWatch, wrap

        w = rec.watches.get(region.key)
        if w is None:
            acc = rec.declared.get(region.key)
            w = BufferWatch(region, acc.direction if acc else None)
            rec.watches[region.key] = w
            self._inc("buffers_watched")
        self._region_objs.setdefault(region.key, region)
        return wrap(buffer, w)

    def task_finished(self, task, place, start: float, end: float) -> None:
        rec = self._records.get(task.tid)
        if rec is None or rec.finish_time is not None:
            return
        rec.finish_time = end
        self._finished_unjoined.append(rec.tid)

    def commit(self, task, written) -> None:
        rec = self._records.get(task.tid)
        now = self._now()
        for acc in written:
            if rec is not None:
                rec.committed[acc.region.key] = now
            self._region_objs.setdefault(acc.region.key, acc.region)
            self._inc("commits_recorded")

    def transfer_issued(self, task, region, space) -> None:
        """A real input transfer is about to happen — remembered so an
        unused input clause can report the wasted bytes."""
        rec = self._records.get(task.tid)
        if rec is not None:
            rec.staged.add(region.key)

    def taskwait(self, regions) -> None:
        """A taskwait completed.  A full one (``regions`` None) joins every
        finished task into the main clock; ``taskwait on(regions)`` joins
        the (transitive) producers of the named regions — every finished
        task that wrote an overlapping region is guaranteed complete by the
        construct's contract."""
        if regions is None:
            joined = [self._records.get(t) for t in self._finished_unjoined]
            self._finished_unjoined = []
        else:
            targets = [(r.obj.oid, r.start, r.end) for r in regions]
            joined = [rec for rec in self._records.values()
                      if rec.finish_time is not None
                      and self._writes_overlapping(rec, targets)]
        for rec in joined:
            if rec is not None:
                self._main_vc.join(self._final(rec))
        self._main_counter += 1
        self._main_vc.set(MAIN_CTX, self._main_counter)
        self._inc("taskwaits" if regions is None else "taskwaits_on")

    def host_read(self, obj, start: int, end: int) -> None:
        """The program read canonical host data (``handle.np``)."""
        self._main_counter += 1
        self._main_vc.set(MAIN_CTX, self._main_counter)
        stale = []
        directory = self.rt.directory
        home = self.rt.master_host
        for key, region in self._region_objs.items():
            if (key[0] == obj.oid and region.start < end
                    and region.end > start):
                # Peek without creating an entry: lazily materializing
                # directory state from a read-only check would perturb
                # the run being observed.
                ent = directory._entries.get(key)
                if ent is not None and home not in ent.holders:
                    stale.append(region)
        self._host_reads.append(_HostRead(
            obj, start, end, tick=self._main_counter,
            snapshot=self._main_vc.copy(), time=self._now(), stale=stale))
        self._inc("host_reads")

    # ------------------------------------------------------------------
    # Happens-before machinery
    # ------------------------------------------------------------------
    def _final(self, rec: _TaskRecord) -> VectorClock:
        """``rec``'s completion clock: submit ⊔ preds' finals ⊔ children's
        finals, with its own component at its epoch (memoized; resolved
        depth-first, each task after its dependences)."""
        stack, expanded = [rec], set()
        while stack:
            r = stack[-1]
            if r.final_vc is not None:
                stack.pop()
                continue
            deps = [self._records[t] for t in (*r.preds, *r.children)
                    if t in self._records and t != r.tid]
            if r.tid not in expanded:
                expanded.add(r.tid)
                stack.extend(d for d in deps if d.final_vc is None)
                continue
            vc = r.submit_vc.copy()
            for d in deps:
                if d.final_vc is not None:  # always, unless the DAG broke
                    vc.join(d.final_vc)
            vc.set(r.tid, r.effective_epoch)
            if r.start_vc is None:
                r.start_vc = vc.copy()
            r.final_vc = vc
            stack.pop()
        return rec.final_vc

    def _start(self, rec: _TaskRecord) -> VectorClock:
        if rec.start_vc is None:
            self._final(rec)
        return rec.start_vc

    def _ordered(self, a: _TaskRecord, b: _TaskRecord) -> bool:
        """True when a happens-before edge orders ``a`` and ``b``.

        Uses each side's *start* clock against the other's epoch — a
        task's accesses happen between start and finish, so ``a`` precedes
        ``b`` iff ``b`` started having observed ``a``'s completion."""
        return (self._start(b).covers(a.tid, a.effective_epoch)
                or self._start(a).covers(b.tid, b.effective_epoch))

    @staticmethod
    def _overlaps(region, targets) -> bool:
        return any(region.obj.oid == oid and region.start < end
                   and region.end > start
                   for oid, start, end in targets)

    def _writes_overlapping(self, rec: _TaskRecord, targets) -> bool:
        for key, acc in rec.declared.items():
            if acc.direction.writes and self._overlaps(acc.region, targets):
                return True
        for key in rec.committed:
            region = self._region_objs.get(key)
            if region is not None and self._overlaps(region, targets):
                return True
        for key, w in rec.watches.items():
            if w.writes and self._overlaps(w.region, targets):
                return True
        return False

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def findings(self) -> list[Finding]:
        """Validate and return the aggregated findings (memoized)."""
        if self._findings is None:
            self._findings = self._validate()
            self._publish(self._findings)
        return self._findings

    def _publish(self, findings: list[Finding]) -> None:
        """Mirror findings into the metrics registry and the ``finding``
        probe point."""
        if self.rt is None:
            return
        total = 0
        for f in findings:
            self.rt.metrics.inc(f"sanitizer.findings.{f.kind}", f.count)
            total += f.count
        self.rt.metrics.set_gauge("sanitizer.findings", total)
        for f in findings:
            at = f.time if f.time is not None else self.rt.env.now
            for fn in self.rt.probes.finding:
                fn(f.kind, f.task, f.obj, at)

    def _validate(self) -> list[Finding]:
        sink: dict[tuple, Finding] = {}
        #: id(body) -> its source attribution, looked up once per body
        #: and only for a finding (``inspect`` re-tokenizes the file).
        sources: dict[int, str] = {}

        def add(kind, task_label, obj_name, detail, at,
                region=None, cost=None, time=None):
            """Count a finding; ``at`` is the task whose body it points
            at, or None for the main program."""
            key = (kind, task_label, obj_name, detail)
            f = sink.get(key)
            if f is None:
                if at is None:
                    where = "<main program>"
                else:
                    fn = _body_of(at)
                    where = sources.get(id(fn))
                    if where is None:
                        where = sources[id(fn)] = _source_of(fn)
                sink[key] = Finding(
                    kind=kind, task=task_label, obj=obj_name, detail=detail,
                    where=where,
                    regions=(repr(region),) if region is not None else (),
                    cost=cost, time=time)
                return
            f.count += 1
            if region is not None and len(f.regions) < 3:
                rr = repr(region)
                if rr not in f.regions:
                    f.regions = f.regions + (rr,)
            if cost is not None:
                f.cost = (f.cost or 0.0) + cost
            if time is not None and (f.time is None or time < f.time):
                f.time = time

        self._check_clause_usage(add)
        self._check_races(add)
        self._check_host_reads(add)

        order = {k: i for i, k in enumerate(KINDS)}
        return sorted(sink.values(),
                      key=lambda f: (order.get(f.kind, 99), f.task, f.obj))

    # -- pass 1: observed accesses vs declared clauses ---------------------
    def _check_clause_usage(self, add) -> None:
        for rec in self._records.values():
            if not rec.executed:
                continue
            at = rec.task
            for key, acc in rec.declared.items():
                w = rec.watches.get(key)
                if w is None:
                    continue  # buffer never resolved (no functional body)
                d = acc.direction
                obj = acc.region.obj.name
                if d.reads and d.writes:           # inout
                    if not w.touched:
                        cost = self._false_dep_cost(rec, key)
                        add("unused-clause", rec.name, obj,
                            "inout region never touched by the body — "
                            "the dependence only serializes", at,
                            region=acc.region, cost=cost,
                            time=rec.start_time)
                    elif not w.writes:
                        add("over-declared-inout", rec.name, obj,
                            "inout region only read — declare input to "
                            "unlock WAR/WAW parallelism", at,
                            region=acc.region, time=rec.start_time)
                    elif not w.reads:
                        add("over-declared-inout", rec.name, obj,
                            "inout region only written — declare output "
                            "to drop the stale-input fetch", at,
                            region=acc.region, time=rec.start_time)
                elif d.writes:                     # output
                    if w.first == "read":
                        add("under-declared-read", rec.name, obj,
                            "output region read before first write — the "
                            "body consumes bytes no dependence protects",
                            at, region=acc.region, time=rec.start_time)
                    if not w.writes:
                        cost = self._false_dep_cost(rec, key)
                        add("unused-clause", rec.name, obj,
                            "output region never written — successors "
                            "consume whatever was there before", at,
                            region=acc.region, cost=cost,
                            time=rec.start_time)
                else:                              # input
                    if w.writes:
                        add("under-declared-write", rec.name, obj,
                            "body writes an input-declared region — a "
                            "data race with any concurrent reader", at,
                            region=acc.region, time=rec.start_time)
                    elif not w.reads:
                        cost = self._false_dep_cost(rec, key)
                        detail = ("input region never read — the RAW "
                                  "dependence only serializes")
                        if key in rec.staged:
                            detail += (" (and its transfer to the "
                                       "executing space was wasted)")
                        add("unused-clause", rec.name, obj, detail, at,
                            region=acc.region, cost=cost,
                            time=rec.start_time)
            for key, acc in rec.copy_only.items():
                w = rec.watches.get(key)
                if w is None or not w.touched:
                    continue
                kind = ("under-declared-write" if w.writes
                        else "under-declared-read")
                add(kind, rec.name, acc.region.obj.name,
                    "copy-clause region accessed with no dependence "
                    "clause — nothing orders this against other tasks",
                    at, region=acc.region, time=rec.start_time)

    def _false_dep_cost(self, rec: _TaskRecord, key) -> float:
        """Estimated serialization cost of the arcs owed solely to
        ``rec``'s clause on region ``key`` (a lower-bound estimate: how
        long each successor sat waiting past its other obligations)."""
        total = 0.0
        for (ptid, stid), prov in self._arc_prov.items():
            if rec.tid not in (ptid, stid):
                continue
            if any(k != key for (k, _kind) in prov):
                continue  # the arc has another, legitimate reason
            pred = self._records.get(ptid)
            succ = self._records.get(stid)
            if pred is None or succ is None or pred.finish_time is None:
                continue
            floor = succ.submit_time
            for other in succ.preds:
                if other == ptid:
                    continue
                orec = self._records.get(other)
                if orec is not None and orec.finish_time is not None:
                    floor = max(floor, orec.finish_time)
            total += max(0.0, pred.finish_time - floor)
        return total

    # -- pass 2: vector-clock races across tasks ---------------------------
    def _check_races(self, add) -> None:
        by_region: dict[tuple, list] = {}
        for rec in self._records.values():
            keys = set(rec.watches) | set(rec.committed)
            for key in keys:
                w = rec.watches.get(key)
                read = w is not None and w.reads > 0
                wrote = ((w is not None and w.writes > 0)
                         or key in rec.committed)
                if read or wrote:
                    by_region.setdefault(key, []).append((rec, wrote))
        for key, events in by_region.items():
            if len(events) < 2:
                continue
            region = self._region_objs.get(key)
            obj_name = region.obj.name if region is not None else str(key)
            for i in range(len(events)):
                a, a_wrote = events[i]
                for j in range(i + 1, len(events)):
                    b, b_wrote = events[j]
                    if not (a_wrote or b_wrote) or a.tid == b.tid:
                        continue
                    if self._ordered(a, b):
                        continue
                    first, second = sorted((a, b), key=lambda r: r.tid)
                    times = [t for t in (a.start_time, b.start_time)
                             if t is not None]
                    add("race", f"{first.name} ~ {second.name}", obj_name,
                        "unordered accesses, at least one a write — no "
                        "dependence or taskwait separates these tasks",
                        first.task, region=region,
                        time=min(times) if times else None)

    # -- pass 3: host reads vs task writes and the directory ---------------
    def _check_host_reads(self, add) -> None:
        for hr in self._host_reads:
            targets = [(hr.obj.oid, hr.start, hr.end)]
            hazard = False
            for rec in self._records.values():
                if not self._writes_overlapping(rec, targets):
                    continue
                after = hr.snapshot.covers(rec.tid, rec.effective_epoch)
                before = rec.submit_vc.get(MAIN_CTX) >= hr.tick
                if not after and not before:
                    hazard = True
                    add("missing-taskwait", rec.name, hr.obj.name,
                        "host code reads data a submitted task writes, "
                        "with no taskwait between — add taskwait (or "
                        "taskwait on the region)", rec.task,
                        time=hr.time)
            if hazard:
                continue  # the ordering bug subsumes the staleness
            for region in hr.stale:
                add("stale-host-read", "<main>", hr.obj.name,
                    "host read after a noflush taskwait while the "
                    "canonical copy lives on a device — flush first",
                    None, region=region, time=hr.time)


def install(sanitizer: Sanitizer | None = None):
    """Context manager: runtimes built inside are checked by ``sanitizer``
    (a fresh one by default), yielded —
    :func:`repro.runtime.probes.install` under the hood::

        with install() as san:
            prog = Program(machine, config)
            prog.run(main(prog))
        report(san.findings())
    """
    return probes.install(sanitizer or Sanitizer())
