"""The runner: set-up, the closed timed loop, checks and metrics.

End-to-end metrics come from the untraced run (``trace=False``); the
per-layer metrics from a separate traced run, in which every other round of
ops is traced so the untraced ones measure the tracing overhead.

The end-to-end times are wall seconds scaled to a reference machine speed.
A fixed NumPy kernel (:class:`Calibration`) is timed in a helper process
between set-ups and between ops; the run's wall times are multiplied by
the reference kernel time over the run's median kernel time.  On a shared
host whose speed drifts by tens of percent over minutes this removes most
of the drift; the unscaled wall times are printed beside the metrics.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
from scipy.special import betainc

from . import layers, workloads

clock = time.perf_counter

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Timed work per calibration sample: a long op is followed by several, so
#: the samples cover the timed work evenly.
CALIBRATION_EVERY_S = 0.5

#: The calibration kernel's median time on the reference machine, a 2-core
#: Intel Xeon VM (the machine the bounds in BENCHMARK.json were set on).
REFERENCE_CALIBRATION_S = 0.035

#: End-to-end metric -> (unit, better).  BENCHMARK.json lists the same.
#: ``op_p50_s`` is the Harrell-Davis median (:func:`hd_median`) of the op
#: times; the three times are scaled by :class:`Calibration`.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "coverage_mean": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclass
class Report:
    """One run's result: metrics with sample counts, checks, context."""

    workload: str
    metrics: dict = field(default_factory=dict)  # name -> (value, unit, samples)
    attempted: int = 0
    failed: int = 0
    info: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    #: the traced run's tracer (spans stay in memory until the run ends)
    tracer: object = None

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def result_json(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit, _) in self.metrics.items()
            },
        }


# -- the machine -------------------------------------------------------------
def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_commit(root: Path) -> str:
    """HEAD of ``root``'s own git checkout, read from ``.git``, else "unknown"."""
    head = _read(root / ".git" / "HEAD")
    if head is None:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(root / ".git" / ref)
    if commit:
        return commit
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine_info(root: Path) -> dict:
    cpu = "unknown"
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    llc, level = "unknown", 0
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        lvl = _read(index / "level")
        if lvl and lvl.isdigit() and int(lvl) > level:
            level, llc = int(lvl), f"L{lvl} {_read(index / 'size')}"
    threads = {
        var: os.environ.get(var)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "llc": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(root),
        "threads": threads,
    }


class Calibration:
    """The machine's speed, from a fixed kernel timed in a helper process.

    The helper (:mod:`perfbench.calibrate`) runs the kernel on request, so
    it runs only between ops, never beside one.  ``scale`` is the reference
    kernel time over this run's median kernel time: the run's times
    multiplied by it read as seconds on a machine as fast as the reference.
    Use as a context manager; leaving it ends the helper and waits for it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._helper = None

    def __enter__(self):
        self._helper = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("calibrate.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc):
        helper, self._helper = self._helper, None
        try:
            helper.stdin.close()
            helper.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            helper.kill()
            helper.wait()
        finally:
            helper.stdout.close()

    def sample(self) -> None:
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        line = self._helper.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration helper ended (exit {self._helper.wait()})")
        self.samples.append(float(line))

    @property
    def scale(self) -> float:
        return REFERENCE_CALIBRATION_S / statistics.median(self.samples)

    def summary(self) -> str:
        return (
            f"calibration median {statistics.median(self.samples):.6f} s, min "
            f"{min(self.samples):.6f} s, max {max(self.samples):.6f} s over "
            f"{len(self.samples)} samples; times scaled by {self.scale:.6f}"
        )


# -- one run -----------------------------------------------------------------
def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _loop(wl, seconds: float, probe, calibration: Calibration) -> tuple[list, float | None]:
    """The closed loop, with a calibration sample per half second of timed work.

    It runs whole rounds (an op is a round of its own outside serve-mix),
    at least two, so every run sends the same mix.  With ``probe``, every
    other round is traced, starting with round 0, so traced and untraced
    ops have the same mix; a traced run runs at least three rounds, so
    warm traced and untraced rounds both follow the cold round 0.

    Returns the ops and the peak RSS at the end of round 1, the last round
    every run sends: serve-mix's result cache grows with every round until
    it reaches its budget, so a later peak would depend on how many rounds
    the machine's speed allowed.
    """
    records: list = []
    peak = None
    timed = 0.0
    since_sample = CALIBRATION_EVERY_S
    min_rounds = 2 if probe is None else 3
    while True:
        i = len(records)
        if timed >= seconds and i % wl.round_size == 0 and i >= min_rounds * wl.round_size:
            break
        while since_sample >= CALIBRATION_EVERY_S:
            calibration.sample()
            since_sample -= CALIBRATION_EVERY_S
        traced = probe is not None and (i // wl.round_size) % 2 == 0
        try:
            op = wl.run_op(i, probe if traced else None)
        except Exception:  # a failing op ends the run and fails it
            traceback.print_exc(file=sys.stderr)
            records.append(workloads.Op(seconds=math.nan, coverage=math.nan, ok=False))
            break
        op.traced = traced
        records.append(op)
        if len(records) == 2 * wl.round_size:
            peak = _peak_rss_mb()
        timed += op.seconds
        since_sample += op.seconds
    calibration.sample()
    return records, peak


def _median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def hd_median(values) -> float | None:
    """The Harrell-Davis estimate of the median: a Beta-weighted mean of
    the order statistics, heaviest at the middle.

    Unlike the sample median it does not jump when the middle op moves
    across a gap between request classes (serve-mix's hits, misses and
    updates of six matrices), so a run's figure depends less on which op
    lands in the middle.
    """
    x = np.sort(np.fromiter(values, dtype=float))
    n = x.size
    if n == 0:
        return None
    weights = np.diff(betainc((n + 1) / 2, (n + 1) / 2, np.arange(n + 1) / n))
    return float(weights @ x)


def run(
    name: str,
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    smoke: bool = False,
    root: Path | None = None,
) -> Report:
    """Set up, run the timed loop, verify every op, compute the metrics."""
    report = Report(workload=name)
    if root is not None:
        info = machine_info(root)
        report.info.append(
            "env " + " ".join(f"{k}={v}" for k, v in info.items() if k != "threads")
        )
        report.info.append(
            "threads " + " ".join(f"{k}={v}" for k, v in info["threads"].items())
        )
    probe = layers.Collector() if trace else None
    setup_times = []
    wl = None
    with Calibration() as calibration:
        for _ in range(1 if trace else SETUP_REPEATS):
            wl = None  # drop the previous set-up before building the next
            calibration.sample()
            start = clock()
            wl = workloads.make(name, seed, smoke)
            wl.setup(probe)
            setup_times.append(clock() - start)
        report.info.append(
            "size " + " ".join(f"{k}={v}" for k, v in wl.size().items())
            + ("  (smoke)" if smoke else "")
        )
        records, peak = _loop(wl, seconds, probe, calibration)
    report.info.append(calibration.summary())

    checks = wl.verify(records)
    checks += [False] * (len(records) - len(checks))
    for op, good in zip(records, checks):
        op.ok = op.ok and good
    report.ops = records
    report.attempted = len(records)
    report.failed = sum(not op.ok for op in records)
    good = [op for op in records if op.ok]
    report.info.append(
        f"failed_fraction {report.failed / max(report.attempted, 1):.4f} "
        f"({report.failed} of {report.attempted} ops)"
    )
    classes = _serve_classes(good)

    if trace:
        report.tracer = probe.tracer
        warm = [op for op in records[wl.round_size:] if op.ok]
        _per_layer(report, probe, good, warm, classes)
    else:
        timed_wall = sum(op.seconds for op in records if not math.isnan(op.seconds))
        setup = _median(setup_times)
        p50 = hd_median(op.seconds for op in good)
        rate = len(good) / timed_wall if timed_wall else None
        report.info.append(
            f"unscaled wall: setup_s {setup} s, op_p50_s {p50} s, ops_per_s {rate} 1/s"
        )
        scale = calibration.scale
        put = report.metrics.__setitem__
        put("setup_s", (setup * scale, "s", len(setup_times)))
        put("op_p50_s", (p50 * scale if good else None, "s", len(good)))
        put("ops_per_s", (rate / scale if rate else None, "1/s", len(good)))
        coverage = [op.coverage for op in good]
        put("coverage_mean", (statistics.fmean(coverage) if coverage else None, "ratio", len(coverage)))
        put("peak_rss_mb", (peak, "MB", 1))
        for label, (value, samples) in classes.items():
            report.info.append(f"{label} {value} s n={samples} (not a metric)")
    return report


def _serve_classes(ops: list) -> dict:
    """serve-mix latency by request class: hit, miss and update."""
    hits = [op.seconds for op in ops if op.counts.get("cached")]
    misses = [op.seconds for op in ops if op.kind == "miss"]
    updates = [op.seconds for op in ops if op.kind == "update"]
    out = {}
    if hits:
        out["serve.hit_p50_s"] = (statistics.median(hits), len(hits))
        p90 = statistics.quantiles(hits, n=10, method="inclusive")[-1] if len(hits) > 1 else hits[0]
        out["serve.hit_p90_s"] = (p90, len(hits))
    if misses:
        out["serve.miss_p50_s"] = (statistics.median(misses), len(misses))
    if updates:
        out["serve.update_p50_s"] = (statistics.median(updates), len(updates))
    return out


def _per_layer(report: Report, probe, good: list, warm: list, classes: dict) -> None:
    """The per-layer metrics; ``warm`` are the good ops after round 0.

    Round 0 is left out of the tracing overhead: on serve-mix it pays the
    process's cold start, and it is always traced.
    """
    values, samples = layers.span_metrics(probe.tracer)
    traced = [op.seconds for op in warm if op.traced]
    untraced = [op.seconds for op in warm if not op.traced]
    if traced and untraced:
        values["obs.trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        samples["obs.trace_overhead_s"] = len(traced) + len(untraced)
    serve = [op for op in good if "response_bytes" in op.counts]
    if serve:
        values["serve.response_bytes"] = statistics.fmean(
            op.counts["response_bytes"] for op in serve
        )
        values["serve.cache.hit_ratio"] = sum(op.counts["cached"] for op in serve) / len(serve)
        samples["serve.response_bytes"] = samples["serve.cache.hit_ratio"] = len(serve)
        ran = [op for op in serve if op.kind == "update" and not op.counts["cached"]]
        if ran:
            values["serve.update.warm_ratio"] = sum(op.counts["warm"] for op in ran) / len(ran)
            samples["serve.update.warm_ratio"] = len(ran)
    for name, (value, count) in classes.items():
        values[name], samples[name] = value, count
    for name, (unit, _, _) in layers.PER_LAYER.items():
        report.metrics[name] = (float(values.get(name, 0.0)), unit, samples.get(name, 0))
    ops, _ = layers.breakdown(probe.tracer)
    wall = statistics.fmean(b.seconds for b in ops) if ops else 0.0
    unattributed = values.get("obs.unattributed_s", 0.0)
    report.info.append(
        f"unattributed {unattributed:.6f} s per traced op "
        f"({100 * unattributed / wall if wall else 0:.1f}% of {wall:.6f} s op wall, "
        f"{len(ops)} traced ops)"
    )
