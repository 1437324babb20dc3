"""Lint: all timing in the library flows through the tracer's clock.

Raw ``time.perf_counter()`` calls scattered through the library would
produce timings invisible to the tracer and the run reports, and two clocks
timing the same work never agree exactly.  The one sanctioned clock owner
is the tracer module (``src/repro/obs/tracer.py``), which publishes the
blessed handle as :data:`repro.obs.tracer.monotonic_clock`.  Everything
else — the simulated device included (a launch's time is its ``kernel``
span's duration), the rest of ``obs/`` (the aggregator, the telemetry
schedule) and the whole serve layer — must time itself through a span
(``Device.launch`` opens one) or an injected ``clock=`` parameter
defaulting to ``monotonic_clock``.  That injection seam is what makes
latency quantiles, rolling windows and tail-sampling decisions
deterministic under test.

Benchmarks, tests and examples are exempt — they are harnesses, not
library code.
"""

from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "repro"

#: The only file that may hold raw timers.
ALLOWED_FILES = ("obs/tracer.py",)

FORBIDDEN = ("perf_counter", "time.monotonic", "time.process_time")


def test_no_raw_timers_outside_tracer():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel.as_posix() in ALLOWED_FILES:
            continue
        text = path.read_text()
        for needle in FORBIDDEN:
            if needle in text:
                offenders.append(f"{rel}: {needle}")
    assert not offenders, (
        "raw timer calls outside src/repro/obs/tracer.py (route timing "
        f"through spans, or inject clock=monotonic_clock): {offenders}"
    )
