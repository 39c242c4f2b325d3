"""The process supervisor: incremental drain, outcomes as tuples, kill.

:class:`IsolatedCall` is what both off-process consumers hold — the pool
backend (test_backends.py) and the figure sweep
(tests/bench/test_sweep.py) — so what is pinned here is the handle
itself: a payload larger than the pipe buffer only arrives by being
polled, and ``kill`` is safe to call at any time.
"""

import os
import time

import pytest

from repro.service.isolation import IsolatedCall, call_isolated

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="isolation requires POSIX fork")


def test_large_payload_arrives_by_polling_and_kill_is_idempotent():
    """8 MiB is 128 pipe buffers: the child blocks on a full pipe until
    the parent's polls have emptied it that many times."""
    size = 8 << 20
    call = IsolatedCall(lambda n: bytes(range(256)) * (n // 256), size)
    deadline = time.monotonic() + 60
    while not call.poll():
        assert time.monotonic() < deadline, "payload never completed"
    assert call.poll()                            # stays true
    call.kill()                                   # finished: nothing to kill
    assert call.outcome() == ("ok", bytes(range(256)) * (size // 256))

    blocked = IsolatedCall(time.sleep, 60)
    assert not blocked.poll()
    blocked.kill()
    blocked.kill()                                # already reaped: no-op
    kind, detail = blocked.outcome()
    assert (kind, detail) == ("err", "process died (wait status 0x9)")
    with pytest.raises(ChildProcessError):        # both children reaped
        os.waitpid(-1, os.WNOHANG)


def test_call_isolated_returns_the_value_or_raises_the_error_text():
    assert call_isolated(int, "ff", base=16) == 255
    with pytest.raises(RuntimeError, match="ValueError: invalid literal"):
        call_isolated(int, "zz", base=16)
    with pytest.raises(RuntimeError, match=r"died \(wait status 0x2a00\)"):
        call_isolated(os._exit, 42)
