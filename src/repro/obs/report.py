"""Machine-readable run reports — the schema-versioned JSON of a run.

One :func:`build_run_report` call folds every observability source of a run
into a single dict under the ``repro.obs/run-report/v2`` schema:

* the per-kernel aggregation of a :class:`~repro.device.device.Device`
  (exactly the numbers ``render_trace`` prints),
* the Figure-6 phase breakdown (``LinearForestResult.timings``: phase name
  → that phase span's seconds),
* the proposition-engine frontier trajectory of a
  :class:`~repro.core.factor.ParallelFactorResult`,
* the residual history of a
  :class:`~repro.solvers.monitor.ConvergenceHistory`,
* a span summary of a :class:`~repro.obs.tracer.Tracer`, and
* the snapshot of a :class:`~repro.obs.metrics.MetricsRegistry`.

Every section is optional — pass what the run produced.  The report is a
strict superset of the text renderers: ``totals`` mirrors ``summarize``
and the phase spans so regression harnesses can diff runs
without parsing tables (see ``benchmarks/conftest.py``, which emits
``BENCH_observability.json`` reports per session).

All imports of other repro layers are deferred into the functions: this
module sits below :mod:`repro.device` in the import graph (the device
imports :mod:`repro.obs.tracer`).
"""

from __future__ import annotations

import json

from .metrics import MetricsRegistry
from .tracer import Tracer, json_safe

__all__ = [
    "RUN_REPORT_SCHEMA",
    "build_run_report",
    "collect_run_metrics",
    "phase_fractions",
    "write_run_report",
]

#: Schema tag of the report layout (bump on incompatible changes).  v2:
#: histogram summaries carry reservoir-estimated ``p50``/``p95``/``p99``
#: alongside count/total/min/max/mean, and serve-layer reports add a
#: ``serve`` section (request latency on the daemon clock, per-request
#: launch/byte totals, trace-retention flag).
RUN_REPORT_SCHEMA = "repro.obs/run-report/v2"


def phase_fractions(timings: dict[str, float]) -> dict[str, float]:
    """Fraction of the total phase time per phase (empty if nothing timed)."""
    total = sum(timings.values())
    if total <= 0.0:
        return {}
    return {name: seconds / total for name, seconds in timings.items()}


def collect_run_metrics(
    registry: MetricsRegistry,
    *,
    device=None,
    timings=None,
    factor_result=None,
    solve_history=None,
) -> MetricsRegistry:
    """Fold the run's telemetry sources into ``registry`` (returned).

    This is the unification the report's ``metrics`` section is built from:
    launch counts and traffic (device), phase seconds (timings), frontier
    occupancy (factor result), solver iterations (history) — all under one
    dotted namespace.

    The fold is *idempotent per source*: a section whose marker counter is
    already populated — by live instrumentation (e.g. :func:`repro.solvers.\
bicgstab` recording into the ambient registry) or by a prior call — is
    left untouched, so totals are never double-counted.
    """
    if device is not None and "kernel.launches" not in registry.counters:
        registry.counter("kernel.launches").inc(device.launch_count)
        registry.counter("kernel.bytes").inc(device.total_bytes())
        for fraction in device.frontier_fractions():
            registry.histogram("kernel.frontier_fraction").observe(fraction)
    if timings is not None:
        # gauges are last-write-wins: re-setting them is already idempotent
        for name, seconds in timings.items():
            registry.gauge(f"phase.seconds.{name}").set(seconds)
        registry.gauge("phase.seconds.total").set(sum(timings.values()))
    if factor_result is not None and "factor.iterations" not in registry.counters:
        registry.counter("factor.iterations").inc(factor_result.iterations)
        for size in factor_result.frontier_history:
            registry.histogram("factor.frontier_size").observe(size)
        fraction = factor_result.final_frontier_fraction
        if fraction is not None:
            registry.gauge("factor.final_frontier_fraction").set(fraction)
    if solve_history is not None and "solver.iterations" not in registry.counters:
        registry.counter("solver.iterations").inc(solve_history.n_iterations)
        for residual in solve_history.relative_residuals:
            registry.histogram("solver.relative_residual").observe(residual)
        registry.gauge("solver.final_residual").set(solve_history.final_residual)
    return registry


def build_run_report(
    *,
    command: str | None = None,
    inputs: dict | None = None,
    device=None,
    timings=None,
    factor_result=None,
    solve_history=None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    extra: dict | None = None,
) -> dict:
    """Assemble the schema-versioned RunReport dict (JSON-serializable).

    ``totals`` always matches the text renderers: ``launches``/``bytes``/
    ``kernel_seconds`` equal the :func:`repro.device.trace.summarize` sums,
    ``phase_seconds`` equals the summed phase seconds.
    """
    report: dict = {"schema": RUN_REPORT_SCHEMA}
    if command is not None:
        report["command"] = command
    if inputs:
        report["inputs"] = dict(inputs)
    totals: dict = {}

    if device is not None:
        from ..device.trace import summarize  # deferred: device imports obs

        kernels = []
        for s in summarize(device):
            kernels.append(
                {
                    "name": s.name,
                    "launches": s.launches,
                    "seconds": s.seconds,
                    "bytes": s.bytes_total,
                    "achieved_gbs": s.achieved_gbs,
                    "active_lanes": s.active_lanes,
                    "total_lanes": s.total_lanes,
                    "active_fraction": s.active_fraction,
                }
            )
        report["kernels"] = kernels
        totals["launches"] = device.launch_count
        totals["bytes"] = device.total_bytes()
        totals["kernel_seconds"] = device.total_seconds()

    if timings is not None:
        fractions = phase_fractions(timings)
        report["phases"] = {
            # one phase span per phase and run
            name: {"seconds": seconds, "calls": 1, "fraction": fractions.get(name)}
            for name, seconds in timings.items()
        }
        totals["phase_seconds"] = sum(timings.values())

    if factor_result is not None:
        report["factor"] = {
            "iterations": factor_result.iterations,
            "m_max": factor_result.m_max,
            "converged": factor_result.converged,
            "frontier_history": list(factor_result.frontier_history),
            "final_frontier_fraction": factor_result.final_frontier_fraction,
            "proposals_per_iteration": list(factor_result.proposals_per_iteration),
        }

    if solve_history is not None:
        report["solver"] = {
            "iterations": solve_history.n_iterations,
            "converged": solve_history.converged,
            "breakdown": solve_history.breakdown,
            "final_residual": solve_history.final_residual,
            "relative_residuals": list(solve_history.relative_residuals),
            "forward_errors": list(solve_history.forward_errors),
        }

    if tracer is not None:
        categories: dict[str, int] = {}
        for s in tracer.spans:
            categories[s.category] = categories.get(s.category, 0) + 1
        report["spans"] = {
            "count": len(tracer.spans),
            "roots": [s.name for s in tracer.roots()],
            "categories": categories,
        }

    if metrics is not None:
        report["metrics"] = metrics.as_dict()

    report["totals"] = totals
    if extra:
        report.update(extra)
    return json_safe(report)


def write_run_report(report: dict, path) -> None:
    """Write a report dict as indented JSON."""
    with open(path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
