"""``repro.obs`` — metrics, tracing, and profiling for training & serving.

The observability subsystem every other layer reports into:

- :mod:`~repro.obs.registry` — process-wide :class:`MetricsRegistry` with
  counters, gauges, and bucketed histograms (exact ``percentile()``);
- :mod:`~repro.obs.tracing` — :class:`Tracer` + nested wall-time spans
  covering the Figure 9 request path;
- :mod:`~repro.obs.profiler` — hook API (``on_epoch``/``on_batch``/
  ``on_request``) invoked by the trainer and the serving facade;
- :mod:`~repro.obs.export` — JSONL snapshots and Prometheus text format;
- :mod:`~repro.obs.summary` — the human-readable ``repro obs`` report.

Everything is stdlib + numpy, and the defaults (:data:`NULL_REGISTRY`,
:data:`NULL_TRACER`) are no-ops, so instrumentation is near-free until a
caller opts in:

>>> from repro.obs import use_observability
>>> with use_observability() as (registry, tracer):
...     ...  # any training / serving code here is measured
"""

from __future__ import annotations

from contextlib import contextmanager

from .export import read_jsonl, snapshot_records, to_prometheus, write_jsonl
from .profiler import Profiler, RecordingProfiler
from .registry import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from .summary import render_records, render_summary
from .tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    # registry
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
    # tracing
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    # profiler
    "Profiler",
    "RecordingProfiler",
    # export / summary
    "snapshot_records",
    "write_jsonl",
    "read_jsonl",
    "to_prometheus",
    "render_records",
    "render_summary",
    # combined scope
    "use_observability",
]


@contextmanager
def use_observability(
    registry: MetricsRegistry | None = None, tracer: Tracer | None = None
):
    """Activate a registry *and* a tracer together; yields ``(registry,
    tracer)`` and restores the previous pair on exit."""
    with use_registry(registry) as active_registry:
        with use_tracer(tracer) as active_tracer:
            yield active_registry, active_tracer
