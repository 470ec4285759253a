"""Process-wide metrics registry: counters, gauges, bucketed histograms.

The registry is the measurement substrate under every training and serving
hot path.  Instrumented code never holds a registry directly — it asks for
the *active* one via :func:`get_registry`, which is the no-op
:class:`NullRegistry` by default, so instrumentation costs almost nothing
until a caller opts in:

>>> from repro.obs import MetricsRegistry, use_registry
>>> with use_registry() as registry:
...     registry.counter("demo.requests").inc()
...     registry.histogram("demo.latency_ms").observe(3.2)
>>> registry.counter("demo.requests").value
1.0

Histograms are bucketed (cumulative bucket counts feed the Prometheus
exporter) but also retain raw samples so :meth:`Histogram.percentile` is
exact — this is the single percentile implementation the serving-latency
report and the drills' reports (:func:`tail_summary`) are built on.
"""

from __future__ import annotations

import bisect
import threading
import weakref
from contextlib import contextmanager

import numpy as np

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "tail_summary",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
]

#: Default latency-flavoured bucket upper bounds (milliseconds); an
#: implicit +Inf bucket always terminates the list.
DEFAULT_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
    50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
)


class Counter:
    """A monotonically increasing count (requests served, bytes pushed).

    Updates are locked: ``+=`` is a read-modify-write, and concurrent
    serving (a worker's request threads, the guard's overload scenarios)
    increments shared counters from many threads at once.
    """

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: dict[str, str] | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge instead")
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value that can move both ways (theta, loss)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str] | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self.value = float("nan")

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Bucketed distribution with exact percentiles over raw samples."""

    __slots__ = ("name", "labels", "buckets", "bucket_counts", "_samples",
                 "_sum", "_min", "_max", "_lock")

    def __init__(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        labels: dict[str, str] | None = None,
    ):
        self.name = name
        self.labels = dict(labels or {})
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        # One slot per finite bound plus the trailing +Inf bucket.
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self._samples: list[float] = []
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        # Locked for the same reason as Counter.inc: bucket counts, the
        # running sum, and min/max are read-modify-write state shared
        # across serving threads.
        v = float(value)
        with self._lock:
            self.bucket_counts[bisect.bisect_left(self.buckets, v)] += 1
            self._samples.append(v)
            self._sum += v
            if v < self._min:
                self._min = v
            if v > self._max:
                self._max = v

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / len(self._samples) if self._samples else float("nan")

    @property
    def min(self) -> float:
        return self._min if self._samples else float("nan")

    @property
    def max(self) -> float:
        return self._max if self._samples else float("nan")

    def percentile(self, q: float) -> float:
        """Exact ``q``-th percentile (0..100) of the observed samples.

        Returns ``nan`` for an empty histogram; with a single sample every
        percentile is that sample.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self._samples:
            return float("nan")
        return float(np.percentile(np.asarray(self._samples), q))

    def summary(self) -> dict[str, float]:
        """count/sum/mean/min/max plus the standard tail percentiles."""
        return {
            "count": float(self.count),
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Prometheus-style ``(upper_bound, cumulative_count)`` pairs,
        ending with ``(inf, total_count)``."""
        pairs: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.bucket_counts):
            running += count
            pairs.append((bound, running))
        pairs.append((float("inf"), running + self.bucket_counts[-1]))
        return pairs


# ----------------------------------------------------------------------
def tail_summary(samples, digits: int, suffix: str = "") -> dict:
    """``count`` / ``p50`` / ``p99`` / ``max`` of raw samples, rounded to
    ``digits`` — the JSON shape the drill reports use (keys take
    ``suffix``, e.g. ``"_ms"``; all zeros when there are no samples)."""
    histogram = Histogram("tail_summary")
    for sample in samples:
        histogram.observe(sample)

    def stat(value: float) -> float:
        return round(value, digits) if histogram.count else 0.0

    return {
        "count": histogram.count,
        f"p50{suffix}": stat(histogram.percentile(50)),
        f"p99{suffix}": stat(histogram.percentile(99)),
        f"max{suffix}": stat(histogram.max),
    }


class MetricsRegistry:
    """Creates-or-returns named instruments; the process-wide metric store.

    Instruments are keyed by ``(kind, name, labels)`` so repeated lookups
    from a hot path return the same object.  Creation is locked; updates
    rely on the GIL (single increments / appends).

    ``default_labels`` are stamped onto every instrument the registry
    creates (call-site labels win on collision).  A cluster worker passes
    ``default_labels={"worker": "w3"}`` so every counter it exports —
    including ones incremented deep inside shared library code — is
    attributable once the gateway aggregates snapshots across processes.
    """

    enabled = True

    def __init__(self, default_labels: dict[str, str] | None = None) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple, object] = {}
        self._scrapers: list[weakref.WeakMethod] = []
        self.default_labels = dict(default_labels or {})

    # ------------------------------------------------------------------
    @staticmethod
    def _key(kind: str, name: str, labels: dict[str, str] | None) -> tuple:
        return (kind, name, tuple(sorted((labels or {}).items())))

    def _merge(self, labels: dict[str, str] | None) -> dict[str, str] | None:
        if not self.default_labels:
            return labels
        merged = dict(self.default_labels)
        merged.update(labels or {})
        return merged

    def _get(self, kind: str, name: str, labels, factory):
        key = self._key(kind, name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.setdefault(key, factory())
        return instrument

    def counter(self, name: str, labels: dict[str, str] | None = None) -> Counter:
        labels = self._merge(labels)
        return self._get("counter", name, labels, lambda: Counter(name, labels))

    def gauge(self, name: str, labels: dict[str, str] | None = None) -> Gauge:
        labels = self._merge(labels)
        return self._get("gauge", name, labels, lambda: Gauge(name, labels))

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        labels: dict[str, str] | None = None,
    ) -> Histogram:
        labels = self._merge(labels)
        return self._get(
            "histogram", name, labels, lambda: Histogram(name, buckets, labels)
        )

    def on_scrape(self, publish) -> None:
        """Call the bound method ``publish(registry)`` (held weakly) before
        each read of the instruments: how a plain int counted off a hot
        path becomes a gauge without costing that path."""
        if self.enabled:
            self._scrapers.append(weakref.WeakMethod(publish))

    # ------------------------------------------------------------------
    def _of_kind(self, kind: str) -> list:
        for publish in filter(None, [ref() for ref in self._scrapers]):
            publish(self)
        return [
            instrument
            for (k, _, _), instrument in sorted(
                self._instruments.items(), key=lambda item: item[0][:2]
            )
            if k == kind
        ]

    @property
    def counters(self) -> list[Counter]:
        return self._of_kind("counter")

    @property
    def gauges(self) -> list[Gauge]:
        return self._of_kind("gauge")

    @property
    def histograms(self) -> list[Histogram]:
        return self._of_kind("histogram")

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()


# ----------------------------------------------------------------------
class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """The default registry: every instrument is a shared no-op singleton.

    Hot paths call ``get_registry().counter(...).inc()`` unconditionally;
    when observability is off this resolves to three attribute lookups and
    an empty method — no dict writes, no sample storage.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._counter = _NullCounter("null")
        self._gauge = _NullGauge("null")
        self._histogram = _NullHistogram("null")

    def counter(self, name, labels=None) -> Counter:
        return self._counter

    def gauge(self, name, labels=None) -> Gauge:
        return self._gauge

    def histogram(self, name, buckets=DEFAULT_BUCKETS, labels=None) -> Histogram:
        return self._histogram


#: Shared do-nothing registry; the process default.
NULL_REGISTRY = NullRegistry()

_active: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The registry instrumented code should write to right now."""
    return _active


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install ``registry`` (``None`` restores the no-op default); returns
    the previously active registry so callers can restore it."""
    global _active
    previous = _active
    _active = registry if registry is not None else NULL_REGISTRY
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry | None = None):
    """Scope a registry: activates it, yields it, restores the previous one.

    With no argument a fresh :class:`MetricsRegistry` is created.
    """
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
