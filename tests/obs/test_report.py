"""Run-report tests: schema, section contents, totals vs. the renderers.

The acceptance property of the subsystem is that the JSON report and the
text renderers are views over the same numbers: ``totals`` must equal the
:func:`repro.device.trace.summarize` sums and the summed phase seconds,
with no independent bookkeeping that could drift.
"""

import json

import numpy as np
import pytest

from repro.core import extract_linear_forest
from repro.device import Device
from repro.device.trace import summarize
from repro.graphs import aniso2
from repro.obs import (
    RUN_REPORT_SCHEMA,
    MetricsRegistry,
    Tracer,
    build_run_report,
    collect_run_metrics,
    phase_fractions,
    use_metrics,
    use_tracer,
    write_run_report,
)
from repro.solvers import bicgstab


@pytest.fixture()
def observed_run():
    """One fully instrumented pipeline run on the ANISO2 model problem."""
    tracer = Tracer("test")
    metrics = MetricsRegistry()
    device = Device()
    with use_tracer(tracer), use_metrics(metrics):
        result = extract_linear_forest(aniso2(12), device=device)
    return tracer, metrics, device, result


def test_minimal_report_has_schema_and_totals():
    report = build_run_report()
    assert report["schema"] == RUN_REPORT_SCHEMA
    assert report["totals"] == {}
    json.dumps(report)


def test_report_totals_match_summarize_and_breakdown(observed_run):
    tracer, metrics, device, result = observed_run
    report = build_run_report(
        command="extract", device=device, timings=result.timings,
        factor_result=result.factor_result, tracer=tracer, metrics=metrics,
    )
    summaries = summarize(device)
    assert report["totals"]["launches"] == sum(s.launches for s in summaries)
    assert report["totals"]["bytes"] == sum(s.bytes_total for s in summaries)
    assert report["totals"]["kernel_seconds"] == pytest.approx(
        sum(s.seconds for s in summaries))
    assert report["totals"]["phase_seconds"] == pytest.approx(
        sum(result.timings.values()))
    # the per-kernel section is summarize() verbatim
    by_name = {k["name"]: k for k in report["kernels"]}
    for s in summaries:
        assert by_name[s.name]["launches"] == s.launches
        assert by_name[s.name]["bytes"] == s.bytes_total
    # the phases section is the breakdown verbatim
    for name, seconds in result.timings.items():
        assert report["phases"][name]["seconds"] == seconds
        assert report["phases"][name]["calls"] == 1
    json.dumps(report)


def test_phase_fractions():
    fr = phase_fractions({"x": 0.25, "y": 0.75})
    assert fr == {"x": 0.25, "y": 0.75}
    assert sum(phase_fractions({"a": 0.1, "b": 0.2, "c": 0.3}).values()) == pytest.approx(1.0)
    assert phase_fractions({}) == {}
    assert phase_fractions({"idle": 0.0}) == {}


def test_report_tracer_view_agrees_with_device_view(observed_run):
    """summarize(tracer) and summarize(device) see the same launches."""
    tracer, _, device, _ = observed_run
    dev_view = {(s.name, s.launches, s.bytes_total) for s in summarize(device)}
    trc_view = {(s.name, s.launches, s.bytes_total) for s in summarize(tracer)}
    assert dev_view == trc_view


def test_report_factor_section(observed_run):
    _, _, _, result = observed_run
    report = build_run_report(factor_result=result.factor_result)
    section = report["factor"]
    fr = result.factor_result
    assert section["iterations"] == fr.iterations
    assert section["frontier_history"] == list(fr.frontier_history)
    assert section["converged"] == fr.converged


def test_report_solver_section():
    rng = np.random.default_rng(0)
    a = aniso2(10)
    b = rng.standard_normal(a.n_rows)
    res = bicgstab(a, b, tol=1e-10, max_iterations=500)
    report = build_run_report(solve_history=res.history)
    section = report["solver"]
    assert section["iterations"] == res.history.n_iterations
    assert section["converged"] == res.converged
    assert section["relative_residuals"] == list(res.history.relative_residuals)
    json.dumps(report)


def test_report_spans_section(observed_run):
    tracer, _, _, _ = observed_run
    report = build_run_report(tracer=tracer)
    section = report["spans"]
    assert section["count"] == len(tracer.spans)
    assert section["roots"] == ["extract-linear-forest"]
    assert section["categories"]["kernel"] == len(tracer.find(category="kernel"))
    assert sum(section["categories"].values()) == len(tracer.spans)


def test_collect_run_metrics_unifies_sources(observed_run):
    tracer, _, device, result = observed_run
    reg = collect_run_metrics(
        MetricsRegistry(), device=device, timings=result.timings,
        factor_result=result.factor_result,
    )
    snap = reg.as_dict()
    assert snap["counters"]["kernel.launches"] == device.launch_count
    assert snap["counters"]["kernel.bytes"] == device.total_bytes()
    assert snap["counters"]["factor.iterations"] == result.factor_result.iterations
    assert snap["gauges"]["phase.seconds.total"] == pytest.approx(
        sum(result.timings.values()))
    hist = snap["histograms"]["factor.frontier_size"]
    assert hist["count"] == len(result.factor_result.frontier_history)


def test_solver_metrics_via_ambient_registry():
    reg = MetricsRegistry()
    a = aniso2(10)
    b = np.ones(a.n_rows)
    with use_metrics(reg):
        res = bicgstab(a, b, tol=1e-10, max_iterations=500)
    assert reg.counter("solver.iterations").value == res.history.n_iterations
    assert reg.gauge("solver.final_residual").value == res.history.final_residual
    assert (reg.histogram("solver.relative_residual").count
            == len(res.history.relative_residuals))


def test_collect_run_metrics_is_idempotent(observed_run):
    """Folding twice — or over live-instrumented metrics — never doubles."""
    _, _, device, result = observed_run
    reg = MetricsRegistry()
    collect_run_metrics(reg, device=device, factor_result=result.factor_result)
    once = reg.as_dict()
    collect_run_metrics(reg, device=device, factor_result=result.factor_result)
    assert reg.as_dict() == once


def test_collect_run_metrics_respects_live_solver_metrics():
    """bicgstab records live into the ambient registry; the report-time fold
    must not add the same history on top (the CLI does exactly this)."""
    reg = MetricsRegistry()
    a = aniso2(10)
    with use_metrics(reg):
        res = bicgstab(a, np.ones(a.n_rows), tol=1e-10, max_iterations=500)
    collect_run_metrics(reg, solve_history=res.history)
    assert reg.counter("solver.iterations").value == res.history.n_iterations
    assert (reg.histogram("solver.relative_residual").count
            == len(res.history.relative_residuals))


def test_write_run_report(tmp_path, observed_run):
    tracer, metrics, device, result = observed_run
    report = build_run_report(device=device, tracer=tracer, metrics=metrics)
    path = tmp_path / "report.json"
    write_run_report(report, path)
    assert json.loads(path.read_text()) == json.loads(json.dumps(report))


def test_report_extra_section():
    report = build_run_report(extra={"matrix": "aniso2", "note": np.int64(1)})
    assert report["matrix"] == "aniso2"
    assert report["note"] == 1
