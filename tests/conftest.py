"""Suite-wide invariants.

``Scheduler._pending`` is a count maintained at every push / pop / drain so
the ``scheduler.pending`` gauge moves in O(1).  The fixture below holds it
to the O(queues) recount, and the gauge to the sum of the counts of every
scheduler sharing its registry (each node image of a cluster run builds
one), after *every* scheduler operation any test in the suite performs —
unit tests, whole-runtime runs, fault recovery (blacklist / rebalance /
drain) and adaptive policy switches alike.

``runtimes`` lets a test reach the ``Runtime`` an app or fuzz run builds
internally.
"""

import functools
import weakref

import pytest

from repro.runtime import Runtime
from repro.runtime.scheduler import Scheduler

_OPERATIONS = ("submit", "task_finished", "next_task", "blacklist",
               "rebalance", "drain_unrunnable", "drain_all")


def _checked(method, sharing):
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        result = method(self, *args, **kwargs)
        assert self._pending == self.recount_pending(), (
            f"{type(self).__name__}.{method.__name__}: maintained pending "
            f"{self._pending} != recount {self.recount_pending()}")
        gauge = self.metrics.value("scheduler.pending")
        queued = sum(s._pending for s in sharing[id(self.metrics)])
        assert gauge == queued, (
            f"{type(self).__name__}.{method.__name__}: the scheduler.pending "
            f"gauge reads {gauge}, {queued} are queued over the schedulers "
            "sharing its registry")
        return result
    return wrapper


def _policies(cls=Scheduler):
    """``cls`` and every scheduler class derived from it."""
    yield cls
    for sub in cls.__subclasses__():
        yield from _policies(sub)


@pytest.fixture(autouse=True)
def pending_count_matches_recount(monkeypatch):
    #: id(registry) -> the live schedulers built over it (a scheduler
    #: keeps its registry alive, so a reused id has no live one left).
    sharing: dict[int, weakref.WeakSet] = {}
    init = Scheduler.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sharing.setdefault(id(self.metrics), weakref.WeakSet()).add(self)

    monkeypatch.setattr(Scheduler, "__init__", recording)
    for cls in _policies():
        for name in _OPERATIONS:
            if name in vars(cls):
                monkeypatch.setattr(cls, name,
                                    _checked(vars(cls)[name], sharing))


@pytest.fixture
def runtimes(monkeypatch):
    """Every ``Runtime`` constructed during the test, in order."""
    made = []
    init = Runtime.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Runtime, "__init__", recording)
    return made
