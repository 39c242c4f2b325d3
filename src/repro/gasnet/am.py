"""GASNet-style active messages (paper Section III.D.1).

"All low level communications for control information and data transfers are
implemented using active messages" — a message names a *handler* registered
on the destination image; delivery runs the handler there.  Three sizes
mirror GASNet's API:

* **short** — control only (a few header bytes);
* **medium** — small bounded payload delivered to a scratch buffer;
* **long** — bulk payload delivered into a destination memory region.

Wire time comes from the shared :class:`~repro.hardware.network.Network`, so
AM traffic and bulk data contend for the same NIC ports.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from ..faults.errors import AMTimeoutError
from ..hardware.network import Network
from ..sim import Environment, Event

__all__ = ["AMLayer", "Endpoint", "SHORT_SIZE"]

#: Wire size charged for a short (control) active message.
SHORT_SIZE = 64


class Endpoint:
    """One node's attachment to the AM layer: its handler table."""

    def __init__(self, node_index: int):
        self.node_index = node_index
        self._handlers: dict[str, Callable] = {}
        #: idempotency-token dedup table (fault mode): token -> handler
        #: result, or an Event while the first delivery is still running.
        self.seen_tokens: dict[int, Any] = {}

    def register(self, name: str, handler: Callable) -> None:
        """Register ``handler(src, *args)``; may be a generator (process)."""
        if name in self._handlers:
            raise ValueError(f"handler {name!r} already registered on "
                             f"node {self.node_index}")
        self._handlers[name] = handler

    def handler(self, name: str) -> Callable:
        try:
            return self._handlers[name]
        except KeyError:
            raise KeyError(
                f"no handler {name!r} on node {self.node_index}"
            ) from None


class AMLayer:
    """The conduit: endpoints plus request delivery over the fabric."""

    def __init__(self, env: Environment, network: Network):
        self.env = env
        self.network = network
        self.endpoints = [Endpoint(node.index)
                          for node in network.nodes]
        #: the environment's registry, which the layer counts into under
        #: ``am.*`` with per-link ``am.link.<src>-><dst>.*``.
        self.metrics = env.metrics
        #: the ``am_sent`` / ``am_handled`` probes and ``am_outcome``
        #: interceptors a runtime binds; a bound outcome switches every
        #: request to at-least-once delivery under ``retry`` (a FaultPlan's
        #: watchdog and backoff schedule) with idempotency tokens.
        self.on_sent = self.on_handled = self.outcomes = ()
        self.retry = None
        self._tokens = itertools.count(1)
        #: (is_long, src, dst) -> the four counters one message bumps,
        #: bound on a link's first message of that size class.
        self._bound_counters: dict = {}

    def endpoint(self, node_index: int) -> Endpoint:
        return self.endpoints[node_index]

    def request(self, src: int, dst: int, handler: str, *args: Any,
                payload_bytes: int = 0, priority: int = 0) -> Event:
        """Send an AM from node ``src`` to ``dst``; returns an event that
        fires when the remote handler has *completed* (request/reply style).

        ``payload_bytes`` > 0 makes it a long message carrying bulk data.
        """
        nbytes = payload_bytes if payload_bytes > 0 else SHORT_SIZE
        key = (payload_bytes > 0, src, dst)
        bound = self._bound_counters.get(key)
        if bound is None:
            bound = self._bound_counters[key] = self._bind_counters(*key)
        c_sent, c_bytes, c_link_messages, c_link_bytes = bound
        c_sent.value += 1
        c_bytes.value += nbytes
        c_link_messages.value += 1
        c_link_bytes.value += nbytes
        for fn in self.on_sent:
            fn(src, dst, handler, nbytes)

        if self.outcomes:
            token = next(self._tokens)
            return self.env.process(self._resilient_request(
                token, src, dst, handler, args, nbytes, priority))

        def deliver():
            yield self.env.process(self.network.transfer(
                self.network.nodes[src], self.network.nodes[dst], nbytes,
                priority=priority,
            ))
            # Handler dispatch overhead on the receiving image.
            yield self.env.timeout(self.network.nic.am_overhead)
            fn = self.endpoints[dst].handler(handler)
            result = fn(src, *args)
            if hasattr(result, "send"):  # generator handler: run as process
                result = yield self.env.process(result)
            for probe in self.on_handled:
                probe(src, dst, handler)
            return result

        return self.env.process(deliver())

    def _bind_counters(self, is_long: bool, src: int, dst: int) -> tuple:
        counter = self.metrics.counter
        link = f"am.link.{src}->{dst}"
        return (counter("am.long_sent" if is_long else "am.short_sent"),
                counter("am.bytes_sent"),
                counter(f"{link}.messages"), counter(f"{link}.bytes"))

    # ------------------------------------------------------------------
    # Fault-tolerant delivery (active only while an am_outcome is bound)
    # ------------------------------------------------------------------
    def _resilient_request(self, token: int, src: int, dst: int,
                           handler: str, args: tuple, nbytes: int,
                           priority: int):
        """At-least-once delivery: each attempt races a watchdog; on
        timeout the sender backs off exponentially and resends with the
        same idempotency token, so the receiver runs the handler exactly
        once no matter how many copies arrive."""
        plan = self.retry
        backoff = plan.am_backoff
        for attempt in range(1, plan.am_max_retries + 1):
            if attempt > 1:
                self.metrics.inc("am.retries")
            for fate in self.outcomes:
                outcome = fate(src, dst)
            delivery = self.env.process(self._attempt(
                token, src, dst, handler, args, nbytes, priority, outcome))
            watchdog = self.env.timeout(plan.am_timeout)
            fired = yield self.env.any_of((delivery, watchdog))
            if delivery in fired:
                return fired[delivery]
            # The attempt (or its acknowledgement) was lost: back off.
            self.metrics.inc("am.timeouts")
            yield self.env.timeout(backoff)
            backoff *= plan.am_backoff_factor
        raise AMTimeoutError(
            f"active message {handler!r} {src}->{dst} unacknowledged "
            f"after {plan.am_max_retries} attempts")

    def _attempt(self, token: int, src: int, dst: int, handler: str,
                 args: tuple, nbytes: int, priority: int, outcome: str):
        """One delivery attempt; never completes for lost outcomes (the
        sender's watchdog handles those)."""
        if outcome == "blackhole":
            # A partition: the message cannot even reach the wire.
            yield Event(self.env)
            return None  # pragma: no cover - unreachable
        yield self.env.process(self.network.transfer(
            self.network.nodes[src], self.network.nodes[dst], nbytes,
            priority=priority,
        ))
        if outcome in ("drop", "corrupt"):
            # Lost in flight / rejected by the receiver's checksum (the
            # wire was still occupied either way).
            yield Event(self.env)
            return None  # pragma: no cover - unreachable
        yield self.env.timeout(self.network.nic.am_overhead)
        endpoint = self.endpoints[dst]
        if token in endpoint.seen_tokens:
            # A resend of a request already delivered (its ack was lost):
            # do not run the handler again — that is the duplicate-delivery
            # hazard — return the first delivery's result instead.
            self.metrics.inc("am.duplicates_suppressed")
            entry = endpoint.seen_tokens[token]
            if isinstance(entry, Event):
                result = yield entry   # first delivery still in progress
            else:
                result = entry
        else:
            marker = Event(self.env)
            endpoint.seen_tokens[token] = marker
            fn = endpoint.handler(handler)
            result = fn(src, *args)
            if hasattr(result, "send"):
                result = yield self.env.process(result)
            for probe in self.on_handled:
                probe(src, dst, handler)
            endpoint.seen_tokens[token] = result
            marker.succeed(result)
        if outcome == "ack_drop":
            # Delivered and handled, but the acknowledgement vanishes:
            # the sender will resend and hit the dedup path above.
            yield Event(self.env)
            return None  # pragma: no cover - unreachable
        return result
