"""repro.obs — unified tracing & metrics.

The observability layer every other layer reports into:

* :class:`~repro.obs.tracer.Tracer` — nested spans (run → phase → kernel
  launch → solver), exportable as Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``) and JSONL; installed ambiently with
  :func:`~repro.obs.tracer.use_tracer`, instrumented sites hook in through
  :func:`~repro.obs.tracer.trace_span` (a no-op when tracing is off).
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  histograms under dotted names, installed with
  :func:`~repro.obs.metrics.use_metrics`.
* :func:`~repro.obs.report.build_run_report` — folds device launch logs,
  phase timings, convergence histories, spans and metrics into one
  schema-versioned RunReport JSON (``repro.obs/run-report/v2``).
* :class:`~repro.obs.agg.Aggregator` — daemon-lifetime aggregation fed per
  request by the serve layer: per-op latency quantiles, rolling windowed
  counters and a tail-based trace sampler, snapshotted under
  ``repro.serve/stats/v2``; exposed by :mod:`repro.obs.expose` as
  Prometheus text and an append-only JSONL telemetry log.

See ``docs/OBSERVABILITY.md`` for the span hierarchy, metric names, the
RunReport schema and the Perfetto how-to.
"""

from .agg import (
    STATS_SCHEMA,
    Aggregator,
    RollingCounter,
    TailSampler,
)
from .expose import (
    TelemetrySchedule,
    render_prometheus,
    write_prometheus,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    current_metrics,
    use_metrics,
)
from .report import (
    RUN_REPORT_SCHEMA,
    build_run_report,
    collect_run_metrics,
    phase_fractions,
    write_run_report,
)
from .tracer import (
    SCHEMA_VERSION,
    Span,
    Tracer,
    current_tracer,
    monotonic_clock,
    trace_span,
    use_tracer,
)

__all__ = [
    "Aggregator",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RUN_REPORT_SCHEMA",
    "RollingCounter",
    "SCHEMA_VERSION",
    "STATS_SCHEMA",
    "Span",
    "TailSampler",
    "TelemetrySchedule",
    "Tracer",
    "build_run_report",
    "collect_run_metrics",
    "current_metrics",
    "current_tracer",
    "monotonic_clock",
    "phase_fractions",
    "render_prometheus",
    "trace_span",
    "use_metrics",
    "use_tracer",
    "write_prometheus",
    "write_run_report",
]
