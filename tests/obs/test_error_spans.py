"""Exception-path accounting: failed bodies still leave truthful records.

A kernel or phase body that raises must (a) keep its accounting record —
the Figure-6 breakdown of a partially failed run stays truthful — and
(b) close its span with an ``error`` attribute naming the exception type,
so the exported trace shows *where* the run died.  Records and phase
times are span durations, so they equal their spans exactly.
"""

import numpy as np
import pytest

from repro.core import extract_linear_forest
from repro.core.pipeline import PHASE_EXTRACT, PHASE_FACTOR, PHASE_SCANS
from repro.device import Device
from repro.graphs import aniso2
from repro.obs import Tracer, use_tracer


class KernelBoom(RuntimeError):
    pass


def test_device_launch_records_on_raise():
    dev = Device()
    buf = np.zeros(100)
    with pytest.raises(KernelBoom):
        with dev.launch("fails", reads=(buf,), writes=(buf,)):
            raise KernelBoom("mid-kernel")
    assert dev.launch_count == 1
    rec = dev.kernels[0]
    assert rec.name == "fails"
    assert rec.bytes_read == buf.nbytes
    assert rec.bytes_written == buf.nbytes
    assert rec.seconds >= 0.0


def test_device_launch_closes_span_with_error():
    dev = Device()
    tracer = Tracer()
    with use_tracer(tracer):
        with pytest.raises(KernelBoom):
            with dev.launch("fails", reads=(np.zeros(10),)):
                raise KernelBoom()
        # the tracer stack is clean: the next span is a root again
        with tracer.span("after") as after:
            pass
    span = tracer.find(category="kernel")[0]
    assert span.name == "fails"
    assert span.end is not None
    assert span.attributes["error"] == "KernelBoom"
    assert span.attributes["bytes_read"] == 80
    assert after.parent_id is None


def test_device_launch_span_has_no_error_on_success():
    dev = Device()
    tracer = Tracer()
    with use_tracer(tracer):
        with dev.launch("works", reads=(np.zeros(10),)):
            pass
    assert "error" not in tracer.find(category="kernel")[0].attributes


class PhaseBoom(RuntimeError):
    pass


def _raise_in_factor_phase(monkeypatch):
    """Make the pipeline's [0,2]-factor phase raise mid-phase."""

    def boom(*args, **kwargs):
        raise PhaseBoom()

    monkeypatch.setattr("repro.core.pipeline.parallel_factor", boom)


def test_phase_span_records_seconds_on_raise(monkeypatch):
    """A raising phase still closes its span with the time spent so far."""
    _raise_in_factor_phase(monkeypatch)
    tracer = Tracer()
    with use_tracer(tracer):
        with pytest.raises(PhaseBoom):
            extract_linear_forest(aniso2(6))
    phase = tracer.find(category="phase")[0]
    assert phase.name == PHASE_FACTOR
    assert phase.seconds is not None and phase.seconds >= 0.0


def test_phase_span_closes_with_error(monkeypatch):
    _raise_in_factor_phase(monkeypatch)
    tracer = Tracer()
    with use_tracer(tracer):
        with pytest.raises(PhaseBoom):
            extract_linear_forest(aniso2(6))
        # the tracer stack is clean: the next span is a root again
        with tracer.span("after") as after:
            pass
    run = tracer.find(category="run")[0]
    phase = tracer.find(category="phase")[0]
    assert phase.parent_id == run.span_id
    assert phase.attributes["error"] == "PhaseBoom"
    assert run.attributes["error"] == "PhaseBoom"
    assert "seconds" not in phase.attributes
    assert after.parent_id is None


def test_breakdown_phase_error_nests_kernel_span(monkeypatch):
    """A kernel failing inside a phase: both spans close, both carry error,
    and the failed launch still leaves its record."""
    dev = Device()

    def failing_factor(*args, **kwargs):
        with dev.launch("inner", reads=(np.zeros(4),)):
            raise KernelBoom()

    monkeypatch.setattr("repro.core.pipeline.parallel_factor", failing_factor)
    tracer = Tracer()
    with use_tracer(tracer):
        with pytest.raises(KernelBoom):
            extract_linear_forest(aniso2(6), device=dev)
    phase = tracer.find(category="phase")[0]
    kernel = tracer.find(category="kernel")[0]
    assert kernel.parent_id == phase.span_id
    assert phase.attributes["error"] == "KernelBoom"
    assert kernel.attributes["error"] == "KernelBoom"
    assert dev.launch_count == 1
    assert dev.kernels[0].seconds == kernel.seconds
    assert dev.kernels[0].bytes_read == 32


def test_kernel_and_phase_times_are_the_span_durations():
    """One clock: every record and phase time *is* its span's duration."""
    dev = Device()
    tracer = Tracer()
    with use_tracer(tracer):
        result = extract_linear_forest(aniso2(10), device=dev)
    kernel_spans = tracer.find(category="kernel")
    assert dev.launch_count == len(kernel_spans) > 0
    for rec, span in zip(dev.kernels, kernel_spans):
        assert rec.name == span.name
        assert rec.seconds == span.seconds
        assert "seconds" not in span.attributes
    phase_spans = {s.name: s for s in tracer.find(category="phase")}
    assert set(result.timings) == set(phase_spans) == {
        PHASE_FACTOR, PHASE_SCANS, PHASE_EXTRACT,
    }
    for name, seconds in result.timings.items():
        assert seconds == phase_spans[name].seconds


def test_untraced_recording_device_keeps_its_own_spans():
    """No ambient tracer: phases time on a run-local tracer and the kernel
    records come from the device's own spans."""
    dev = Device()
    result = extract_linear_forest(aniso2(8), device=dev)
    assert dev.launch_count > 0
    assert all(rec.seconds >= 0.0 for rec in dev.kernels)
    assert [rec.launch_index for rec in dev.kernels] == list(range(dev.launch_count))
    assert all(seconds >= 0.0 for seconds in result.timings.values())
    dev.reset()
    assert dev.launch_count == 0 and dev.kernels == []
