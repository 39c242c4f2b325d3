"""The counter registry: the runtime's quantitative self-description.

The paper's evaluation (Section V) explains performance by *mechanism* —
cache-policy ablations hinge on how many transfers each write causes,
presend sweeps on how much data movement overlaps computation.  Spans (see
:mod:`repro.runtime.trace`) show *when* things happened; the registry counts
*how often* and *how much*: cache hits per device, bytes per physical link,
kernel launches, presend dispatches, steals.

Three instrument kinds cover the runtime's needs:

* :class:`Counter` — a monotonically increasing count (hits, bytes, sends);
* :class:`Gauge` — a level that moves both ways, with a high-water mark
  (bytes resident in a cache, outstanding presends);
* :class:`Histogram` — a distribution summary (count/total/min/max/mean)
  for observed values such as task durations.

Instruments are created lazily by name, so call sites never need
registration boilerplate::

    metrics = CounterRegistry()
    metrics.inc("cache.gpu:0:0.hits")
    metrics.observe("tasks.cuda.duration", 1.5e-3)
    print(metrics.value("cache.gpu:0:0.hits"))

Names are dotted paths (``subsystem.instance.what``); ``snapshot()``
flattens everything into one JSON-friendly dict keyed by those names.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["Counter", "Gauge", "Histogram", "CounterRegistry"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: "int | float" = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A level that can move both ways; remembers its high-water mark."""

    __slots__ = ("name", "value", "high_water")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self.high_water = 0

    def set(self, value: "int | float") -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def add(self, amount: "int | float") -> None:
        self.set(self.value + amount)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}={self.value} hwm={self.high_water}>"


class Histogram:
    """Streaming distribution summary: count, total, min, max, mean."""

    __slots__ = ("name", "count", "total", "vmin", "vmax")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        if self.count == 0:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0}
        return {"count": self.count, "total": self.total, "min": self.vmin,
                "max": self.vmax, "mean": self.mean}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:g}>"


class CounterRegistry:
    """Lazily-created named instruments plus snapshot/export."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: string-valued "info" instruments (e.g. the scheduler policy
        #: currently active under the adaptive meta-scheduler): last write
        #: wins, exported verbatim in snapshots.
        self._infos: dict[str, str] = {}

    # -- instrument access (creates on first use) -------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            self._check_fresh(name)
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            self._check_fresh(name)
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            self._check_fresh(name)
            h = self._histograms[name] = Histogram(name)
        return h

    def _check_fresh(self, name: str) -> None:
        if (name in self._counters or name in self._gauges
                or name in self._histograms or name in self._infos):
            raise ValueError(
                f"metric {name!r} already exists with a different kind")

    # -- info instruments ---------------------------------------------------
    def set_info(self, name: str, value: str) -> None:
        """Record a string-valued fact (last write wins)."""
        if name not in self._infos:
            self._check_fresh(name)
        self._infos[name] = str(value)

    # -- recording shortcuts ----------------------------------------------
    def inc(self, name: str, amount: "int | float" = 1) -> None:
        # Hand-inlined Counter.inc: this is the hottest call in the whole
        # metrics layer (every transfer leg increments four counters).
        c = self._counters.get(name)
        if c is None:
            c = self.counter(name)
        if amount < 0:
            raise ValueError(f"counter {name!r} cannot decrease")
        c.value += amount

    def set_gauge(self, name: str, value: "int | float") -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- queries ------------------------------------------------------------
    def value(self, name: str, default: "int | float" = 0) -> "int | float":
        """Current value of a counter or gauge (``default`` if absent)."""
        c = self._counters.get(name)
        if c is not None:
            return c.value
        g = self._gauges.get(name)
        if g is not None:
            return g.value
        return default

    def names(self) -> list[str]:
        return sorted([*self._counters, *self._gauges, *self._histograms,
                       *self._infos])

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms) + len(self._infos))

    def __bool__(self) -> bool:
        # An empty registry is still a registry — never let `metrics or
        # default` silently replace one that was passed in.
        return True

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    # -- export ------------------------------------------------------------
    def snapshot(self) -> "dict[str, int | float | dict]":
        """One flat, JSON-serializable dict.  Counters and gauges map to
        their value (gauges additionally export ``<name>.high_water``);
        histograms map to their five-number summary dict."""
        snap: dict[str, int | float | dict] = {}
        for name in sorted(self._counters):
            snap[name] = self._counters[name].value
        for name in sorted(self._gauges):
            g = self._gauges[name]
            snap[name] = g.value
            snap[f"{name}.high_water"] = g.high_water
        for name in sorted(self._histograms):
            snap[name] = self._histograms[name].summary()
        for name in sorted(self._infos):
            snap[name] = self._infos[name]
        return snap
