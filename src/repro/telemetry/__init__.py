"""End-to-end telemetry: metrics registry, trace spans, profiling.

The observability layer the serving tier fronts:

- :mod:`repro.telemetry.metrics` — a process-embeddable registry of
  counters, gauges, and fixed-bucket histograms with a Prometheus
  text-exposition renderer (``GET /metrics``).  The latency bucket
  ladder (:data:`~repro.telemetry.metrics.LATENCY_BUCKETS_SECONDS`)
  is shared with ``benchmarks/bench_service.py`` so live scrapes and
  offline benchmark reports agree on one histogram definition.
- :mod:`repro.telemetry.trace` — trace spans with ids, parents, and
  wall+CPU timings, threaded from the HTTP handler through the
  scheduler, worker lanes, engine executors, and every pipeline pass.
  Disabled-mode calls return a shared no-op handle (no allocation, no
  lock) so an untraced request pays one thread-local read per span
  site.  Spans cross the process boundary as JSON-native dicts:
  workers and parallel sweep shards carry the parent span id in and return a
  serialized span batch alongside their results.
- :mod:`repro.telemetry.profile` — opt-in router profiling: per-step
  candidate counts, winner-tie sizes, and scoring time,
  aggregated per routing run with a single thread-local check when
  disabled.
- :mod:`repro.telemetry.snapshot` — the one service-stats assembly
  (``GET /stats``, the ``serve -v`` report, and the metrics
  collectors all read the same snapshot function).

Import discipline: this package must stay importable from the hot
layers (router, scheduler, pipeline runner), so nothing here imports
:mod:`repro.service` or :mod:`repro.engine` at module scope —
:mod:`repro.telemetry.snapshot` resolves those lazily.
"""

from repro.telemetry.metrics import (
    LATENCY_BUCKETS_SECONDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_quantile,
    histogram_payload,
)
from repro.telemetry.profile import (
    RouterProfiler,
    active_router_profiler,
    profiled_routing,
)
from repro.telemetry.snapshot import (
    register_service_collectors,
    service_snapshot,
    snapshot_series,
)
from repro.telemetry.trace import (
    Span,
    TraceStore,
    Tracer,
    current_span_id,
    current_tracer,
    render_span_tree,
    span,
    tracing,
)

__all__ = [
    "LATENCY_BUCKETS_SECONDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bucket_quantile",
    "histogram_payload",
    "RouterProfiler",
    "active_router_profiler",
    "profiled_routing",
    "register_service_collectors",
    "service_snapshot",
    "snapshot_series",
    "Span",
    "TraceStore",
    "Tracer",
    "current_span_id",
    "current_tracer",
    "render_span_tree",
    "span",
    "tracing",
]
