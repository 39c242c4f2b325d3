"""The process supervisor: one ``os.fork`` per isolated call, nothing else.

Two holders run calls off-process: a forking
:class:`~repro.service.backends.Backend` (a process per job — the service
and the figure sweep :func:`repro.bench.sweep.run_points` are its
clients) and the blocking :func:`call_isolated`.  Both hold
:class:`IsolatedCall` handles with nothing in between — no worker pool,
no thread, no queue — and this module's ``os.fork`` is the only place
under ``src/`` a process is made.

An :class:`IsolatedCall` forks at construction.  The child inherits the
caller's state copy-on-write as of that moment (so ``fn`` need not be
picklable and sees any monkeypatching), computes ``fn(*args, **kwargs)``,
pickles the outcome down a pipe and ``_exit``\\ s without ever returning
into the caller's frames.  A payload is usually larger than the pipe
buffer, so a child only finishes by being drained: ``poll()`` does that
without blocking, ``outcome()`` blocks.

Outcomes are the backend contract's own tuples
(:mod:`repro.service.backends`); no exception crosses a process boundary:

* ``("ok", value)`` — the callable returned ``value``;
* ``("err", traceback text)`` — the callable **raised** (or its result
  would not pickle, or the payload would not unpickle);
* ``("err", "process died (wait status 0x…)")`` — the child **died**
  (segfault, ``os._exit``, OOM-kill, :meth:`IsolatedCall.kill`): pipe EOF
  without a complete payload, named by its ``waitpid`` status — never a
  hang, and nobody's failure but that call's.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import traceback

__all__ = ["IsolatedCall", "call_isolated"]


class IsolatedCall:
    """``fn(*args, **kwargs)`` running in a child forked right now."""

    def __init__(self, fn, *args, **kwargs):
        rfd, wfd = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:                         # the isolated child
            status = 1
            try:
                os.close(rfd)
                try:
                    payload = pickle.dumps(("ok", fn(*args, **kwargs)))
                except BaseException:  # noqa: BLE001 - reported to the parent
                    payload = pickle.dumps(("err", traceback.format_exc()))
                with os.fdopen(wfd, "wb") as fh:
                    fh.write(payload)
                status = 0
            finally:
                os._exit(status)                  # never re-enter the caller
        os.close(wfd)
        os.set_blocking(rfd, False)
        #: read end of the pipe; ``None`` once the child has been reaped.
        self._fd: "int | None" = rfd
        self._data = bytearray()
        self._wait_status = 0

    def fileno(self) -> int:
        """The pipe's read end, for ``select`` (until the child is reaped)."""
        return self._fd

    def poll(self) -> bool:
        """Take what the child has written so far, without blocking; true
        once it has finished (pipe at EOF) and has been reaped."""
        while self._fd is not None:
            try:
                chunk = os.read(self._fd, 1 << 20)
            except BlockingIOError:
                return False
            if chunk:
                self._data += chunk
            else:
                self._reap()
        return True

    def _reap(self) -> None:
        os.close(self._fd)
        self._fd = None
        _, self._wait_status = os.waitpid(self.pid, 0)

    def outcome(self) -> "tuple[str, object]":
        """Block until the child has finished; what became of the call."""
        while not self.poll():
            select.select([self], [], [])
        # Exit status 0 is only reached after the whole payload is written.
        if self._wait_status or not self._data:
            return ("err", f"process died (wait status "
                           f"{self._wait_status:#x})")
        try:
            return pickle.loads(self._data)
        except Exception:  # noqa: BLE001 - still an outcome
            return ("err", traceback.format_exc())

    def kill(self) -> None:
        """SIGKILL and reap the child; a no-op once it has been reaped."""
        if self._fd is not None:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()


def call_isolated(fn, *args, **kwargs):
    """Blocking form: the callable's (picklable) result, or
    ``RuntimeError`` carrying the ``"err"`` outcome's text."""
    kind, value = IsolatedCall(fn, *args, **kwargs).outcome()
    if kind == "err":
        raise RuntimeError(value)
    return value
