"""Suite-wide invariants.

``Scheduler.pending`` is a count maintained at every push / pop / drain so
the ``scheduler.pending`` gauge write is O(1).  The fixture below holds it
to the O(queues) recount after *every* scheduler operation any test in the
suite performs — unit tests, whole-runtime runs, fault recovery
(blacklist / rebalance / drain) and adaptive policy switches alike.

``runtimes`` lets a test reach the ``Runtime`` an app or fuzz run builds
internally.
"""

import functools

import pytest

from repro.runtime import Runtime
from repro.runtime.scheduler import Scheduler

_OPERATIONS = ("submit", "task_finished", "next_task", "blacklist",
               "rebalance", "drain_unrunnable", "drain_all")


def _checked(method):
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        result = method(self, *args, **kwargs)
        assert self.pending == self.recount_pending(), (
            f"{type(self).__name__}.{method.__name__}: maintained pending "
            f"{self.pending} != recount {self.recount_pending()}")
        return result
    return wrapper


def _policies(cls=Scheduler):
    """``cls`` and every scheduler class derived from it."""
    yield cls
    for sub in cls.__subclasses__():
        yield from _policies(sub)


@pytest.fixture(autouse=True)
def pending_count_matches_recount(monkeypatch):
    for cls in _policies():
        for name in _OPERATIONS:
            if name in vars(cls):
                monkeypatch.setattr(cls, name, _checked(vars(cls)[name]))


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
