"""Per-layer attribution for the traced run.

Around each traced op, the traced run installs wrappers around the public
functions of each layer, at the module attributes the callers resolve
(``repro.core.pipeline.parallel_factor``, ``repro.serve.server.load_matrix``,
...), and restores them afterwards; untraced ops call the library untouched.
Each wrapper records one span named after its layer into the run's
:class:`~repro.obs.Tracer`, which is also the ambient tracer during a traced
op, so the program's own stage and kernel spans nest under the benchmark's.

Kernel counts come from the recording :class:`~repro.device.Device` a layer
call runs on: the records the device gained during the call belong to that
layer.  The serve layer gives every cold request its own fresh device; the
traced run captures those by wrapping ``repro.serve.server.Device``.

A span's self time is its duration minus the durations of the layer spans
nested directly inside it.  An op's unattributed time is its wall time
minus its top-level layer spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field

from repro.device import Device
from repro.obs import Tracer, use_tracer

OP = "op"
LAYER = "layer"

#: Per-layer metric -> (unit, better, the end-to-end metric and workload it
#: should move).  BENCHMARK.json lists the same names and units.
PER_LAYER = {
    "graphs.build_s": ("s", "lower", "setup_s on both workloads; op_p50_s on serve-mix, where each request rebuilds its suite matrix"),
    "sparse.prepare_s": ("s", "lower", "op_p50_s on extract-aniso2 and serve-mix (hits and updates)"),
    "core.factor.s": ("s", "lower", "op_p50_s on extract-aniso2; ops_per_s on serve-mix (misses)"),
    "core.factor.rounds": ("count", "lower", "op_p50_s on extract-aniso2; ops_per_s on serve-mix (misses)"),
    "core.factor.launches": ("count", "lower", "op_p50_s on extract-aniso2; ops_per_s on serve-mix (misses)"),
    "core.factor.bytes": ("B", "lower", "op_p50_s on extract-aniso2; ops_per_s on serve-mix (misses)"),
    "core.scan.s": ("s", "lower", "op_p50_s on extract-aniso2 most (scans are about 60% of an op)"),
    "core.scan.launches": ("count", "lower", "op_p50_s on extract-aniso2 most"),
    "core.scan.bytes": ("B", "lower", "op_p50_s on extract-aniso2 most"),
    "core.scan.active_lane_ratio": ("ratio", "higher", "op_p50_s on extract-aniso2 most"),
    "sort.permutation_s": ("s", "lower", "op_p50_s on extract-aniso2; ops_per_s on serve-mix (every update re-sorts in full)"),
    "sort.bytes": ("B", "lower", "op_p50_s on extract-aniso2; ops_per_s on serve-mix"),
    "core.extraction.s": ("s", "lower", "op_p50_s on extract-aniso2; ops_per_s on serve-mix (misses)"),
    "core.coverage.s": ("s", "lower", "op_p50_s on extract-aniso2; ops_per_s on serve-mix (misses)"),
    "device.launches": ("count", "lower", "op_p50_s on extract-aniso2; ops_per_s on serve-mix"),
    "device.bytes_computed": ("B", "lower", "op_p50_s on extract-aniso2; ops_per_s on serve-mix"),
    "device.kernel_s": ("s", "lower", "op_p50_s on extract-aniso2; ops_per_s on serve-mix"),
    "device.host_s": ("s", "lower", "op_p50_s on both workloads"),
    "tune.fingerprint_s": ("s", "lower", "op_p50_s on serve-mix (hits and updates)"),
    "serve.decode_s": ("s", "lower", "op_p50_s on serve-mix"),
    "serve.load_matrix_s": ("s", "lower", "op_p50_s on serve-mix"),
    "serve.encode_s": ("s", "lower", "op_p50_s on serve-mix"),
    "serve.response_bytes": ("B", "lower", "op_p50_s on serve-mix"),
    "serve.cache.hit_ratio": ("ratio", "higher", "op_p50_s and ops_per_s on serve-mix"),
    "serve.update.warm_ratio": ("ratio", "higher", "ops_per_s on serve-mix (update latency)"),
    "serve.hit_p50_s": ("s", "lower", "op_p50_s on serve-mix"),
    "serve.hit_p90_s": ("s", "lower", "op_p50_s on serve-mix"),
    "serve.miss_p50_s": ("s", "lower", "ops_per_s on serve-mix"),
    "serve.update_p50_s": ("s", "lower", "ops_per_s on serve-mix"),
    "delta.edit_matrix_s": ("s", "lower", "ops_per_s on serve-mix (update latency)"),
    "delta.apply_s": ("s", "lower", "ops_per_s on serve-mix (update latency)"),
    "delta.region_ratio": ("ratio", "lower", "ops_per_s on serve-mix (update latency)"),
    "delta.rescan_ratio": ("ratio", "lower", "ops_per_s on serve-mix (update latency)"),
    "delta.fallback_ratio": ("ratio", "lower", "ops_per_s on serve-mix (update latency)"),
    "delta.launches": ("count", "lower", "ops_per_s on serve-mix (update latency)"),
    "delta.bytes": ("B", "lower", "ops_per_s on serve-mix (update latency)"),
    "obs.trace_overhead_s": ("s", "lower", "none: the cost of tracing and metering itself"),
    "obs.unattributed_s": ("s", "lower", "none: op time outside every named layer"),
}

#: Self-time metrics, per traced op, and the span each one sums.
SELF_TIME = {
    "sparse.prepare_s": "sparse.prepare",
    "core.factor.s": "core.factor",
    "core.scan.s": "core.scan",
    "sort.permutation_s": "sort.permutation",
    "core.extraction.s": "core.extraction",
    "core.coverage.s": "core.coverage",
    "tune.fingerprint_s": "tune.fingerprint",
    "serve.decode_s": "serve.decode",
    "serve.load_matrix_s": "serve.load_matrix",
    "serve.encode_s": "serve.encode",
    "delta.edit_matrix_s": "delta.edit_matrix",
    "delta.apply_s": "delta.apply",
}


def _kw_device(args, kwargs):
    return kwargs.get("device")


def _self_device(args, kwargs):
    return getattr(args[0], "device", None)


def _factor_rounds(span, args, kwargs, out) -> None:
    span.attributes["rounds"] = int(out.iterations)


def _sort_bytes(span, args, kwargs, out) -> None:
    # the keys read and the permutation written at the call boundary; the
    # radix sort itself launches no metered kernels
    info = args[0]
    span.attributes["bytes"] = int(info.path_id.nbytes + info.position.nbytes + out.nbytes)


def _delta_stats(span, args, kwargs, out) -> None:
    stats = out.stats
    total = max(stats.total_vertices, 1)
    span.attributes.update(
        region=stats.region_vertices / total,
        rescan=stats.rescanned_vertices / total,
        fallback=stats.fallback not in (None, "empty"),
    )


_PIPE = "repro.core.pipeline"
_DELTA = "repro.core.delta"
_SERVE = "repro.serve.server"

#: (layer span, module or "module:Class", attribute, device getter, hook)
CALL_SITES = (
    ("graphs.build", _SERVE, "build_matrix", None, None),
    ("sparse.prepare", _PIPE, "prepare_graph", None, None),
    ("sparse.prepare", _DELTA, "prepare_graph", None, None),
    ("sparse.prepare", _SERVE, "prepare_graph", None, None),
    ("core.factor", _PIPE, "parallel_factor", _kw_device, _factor_rounds),
    ("core.factor", _DELTA, "parallel_factor", _kw_device, _factor_rounds),
    ("core.scan", "repro.core.scan:BidirectionalScan", "run", _self_device, None),
    ("core.scan", _PIPE, "break_cycles", _kw_device, None),
    ("core.scan", _PIPE, "identify_paths", _kw_device, None),
    ("core.scan", _PIPE, "paths_from_scan", None, None),
    ("sort.permutation", _PIPE, "forest_permutation", None, _sort_bytes),
    ("sort.permutation", _DELTA, "forest_permutation", None, _sort_bytes),
    ("core.extraction", _PIPE, "extract_tridiagonal", _kw_device, None),
    ("core.coverage", _PIPE, "coverage_of", None, None),
    ("core.coverage", _DELTA, "coverage_of", None, None),
    ("tune.fingerprint", _SERVE, "fingerprint_graph", None, None),
    ("tune.fingerprint", _SERVE, "matrix_digest", None, None),
    ("serve.load_matrix", _SERVE, "load_matrix", None, None),
    ("delta.edit_matrix", _DELTA, "apply_edits_to_matrix", None, None),
    ("delta.edit_matrix", _SERVE, "apply_edits_to_matrix", None, None),
    ("delta.apply", _SERVE, "apply_edits", _kw_device, _delta_stats),
)


def _resolve(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _kernel_totals(records) -> dict:
    telemetry = [k for k in records if k.active_lanes is not None and k.total_lanes]
    return {
        "launches": len(records),
        "bytes": sum(k.bytes_total for k in records),
        "kernel_s": sum(k.seconds for k in records),
        "active_lanes": sum(k.active_lanes for k in telemetry),
        "total_lanes": sum(k.total_lanes for k in telemetry),
    }


class _JsonShim:
    """``repro.serve.server.json`` with ``loads``/``dumps`` in serve spans."""

    def __init__(self, real, collector: "Collector"):
        self._real = real
        self._collector = collector

    def __getattr__(self, name):
        return getattr(self._real, name)

    def loads(self, *args, **kwargs):
        with self._collector.span("serve.decode"):
            return self._real.loads(*args, **kwargs)

    def dumps(self, *args, **kwargs):
        with self._collector.span("serve.encode"):
            return self._real.dumps(*args, **kwargs)


class Collector:
    """The traced run's tracer, its wrappers and the devices of the current op."""

    def __init__(self):
        self.tracer = Tracer("perfbench")
        self._devices: list[Device] = []

    def span(self, name: str):
        return self.tracer.span(name, category=LAYER)

    def new_device(self) -> Device:
        """A fresh recording device for the next traced op."""
        device = Device("perfbench-op")
        self._devices.append(device)
        return device

    @contextmanager
    def op(self):
        """One traced op: the wrappers, the ambient tracer and an ``op`` span.

        Untraced ops run with none of them, so the difference between the
        two measures the whole cost of tracing.
        """
        try:
            with self._installed(), use_tracer(self.tracer), \
                    self.tracer.span("op", category=OP) as span:
                yield span
            span.attributes.update(
                _kernel_totals([k for d in self._devices for k in d.kernels])
            )
        finally:
            self._devices = []

    @contextmanager
    def _installed(self):
        """Install every wrapper; restore the original attributes on exit."""
        with ExitStack() as stack:
            for layer, target, attr, device_of, hook in CALL_SITES:
                obj = _resolve(target)
                original = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
                stack.callback(setattr, obj, attr, original)
                setattr(obj, attr, self._wrap(layer, original, device_of, hook))
            server = importlib.import_module(_SERVE)
            stack.callback(setattr, server, "json", server.json)
            server.json = _JsonShim(server.json, self)
            stack.callback(setattr, server, "Device", server.Device)
            server.Device = self._capturing(server.Device)
            yield self

    def _wrap(self, layer, fn, device_of, hook):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            device = device_of(args, kwargs) if device_of else None
            recording = isinstance(device, Device) and device.record
            start = len(device.kernels) if recording else 0
            with tracer.span(layer, category=LAYER) as span:
                out = fn(*args, **kwargs)
            if recording:
                span.attributes.update(_kernel_totals(device.kernels[start:]))
            if hook is not None:
                hook(span, args, kwargs, out)
            return out

        return wrapped

    def _capturing(self, cls):
        collector = self

        class CapturedDevice(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                collector._devices.append(self)

        return CapturedDevice


@dataclass
class OpBreakdown:
    """Layer attribution of one traced op."""

    seconds: float
    device: dict
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    top_level_s: float = 0.0
    #: (layer, span attributes) of each outermost call of a layer
    calls: list = field(default_factory=list)

    @property
    def unattributed_s(self) -> float:
        return self.seconds - self.top_level_s


def breakdown(tracer: Tracer) -> tuple[list[OpBreakdown], list[float]]:
    """Per-op attribution, plus the duration of every ``graphs.build`` span."""
    spans = tracer.spans
    owner: list[int | None] = [None] * len(spans)  # nearest op/layer span
    parent: dict[int, int | None] = {}  # op/layer span -> op/layer parent
    for s in spans:
        up = owner[s.parent_id] if s.parent_id is not None else None
        if s.category in (OP, LAYER):
            parent[s.span_id] = up
            owner[s.span_id] = s.span_id
        else:
            owner[s.span_id] = up
    children_s: dict[int, float] = defaultdict(float)
    for sid, up in parent.items():
        if up is not None:
            children_s[up] += spans[sid].seconds

    ops: dict[int, OpBreakdown] = {}
    builds: list[float] = []
    for sid, up in parent.items():  # start order: an op precedes its layers
        s = spans[sid]
        if s.category == OP:
            ops[sid] = OpBreakdown(seconds=s.seconds, device=dict(s.attributes))
            continue
        if s.name == "graphs.build":
            builds.append(s.seconds)
        op, nested, p = None, False, up
        while p is not None:
            if spans[p].category == OP:
                op = p
                break
            nested |= spans[p].name == s.name
            p = parent[p]
        if op is None:
            continue
        b = ops[op]
        b.self_s[s.name] += s.seconds - children_s[sid]
        if up == op:
            b.top_level_s += s.seconds
        if not nested:
            b.calls.append((s.name, s.attributes))
    return list(ops.values()), builds


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def span_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics measured from spans, and their sample counts.

    Times and counts are means per traced op; ``core.factor.rounds`` and the
    ``delta.*_ratio`` metrics are means per call; ``graphs.build_s`` is the
    mean time of one matrix build, in set-up or in a request.
    """
    ops, builds = breakdown(tracer)
    n = len(ops)
    values: dict[str, float] = {}
    samples: dict[str, int] = {}

    def put(name, value, count):
        values[name] = float(value)
        samples[name] = count

    put("graphs.build_s", _mean(builds), len(builds))
    for metric, layer in SELF_TIME.items():
        put(metric, _mean(b.self_s.get(layer, 0.0) for b in ops), n)

    def calls(layer):
        return [attrs for b in ops for name, attrs in b.calls if name == layer]

    def per_op(layer, key):
        return _mean(
            sum(attrs.get(key, 0) for name, attrs in b.calls if name == layer)
            for b in ops
        )

    factor = calls("core.factor")
    put("core.factor.rounds", _mean(a["rounds"] for a in factor), len(factor))
    put("core.factor.launches", per_op("core.factor", "launches"), n)
    put("core.factor.bytes", per_op("core.factor", "bytes"), n)
    scan = calls("core.scan")
    lanes = sum(a.get("total_lanes", 0) for a in scan)
    active = sum(a.get("active_lanes", 0) for a in scan)
    put("core.scan.launches", per_op("core.scan", "launches"), n)
    put("core.scan.bytes", per_op("core.scan", "bytes"), n)
    put("core.scan.active_lane_ratio", active / lanes if lanes else 0.0, len(scan))
    put("sort.bytes", per_op("sort.permutation", "bytes"), n)
    put("device.launches", _mean(b.device.get("launches", 0) for b in ops), n)
    put("device.bytes_computed", _mean(b.device.get("bytes", 0) for b in ops), n)
    put("device.kernel_s", _mean(b.device.get("kernel_s", 0.0) for b in ops), n)
    put(
        "device.host_s",
        _mean(b.seconds - b.device.get("kernel_s", 0.0) for b in ops),
        n,
    )
    delta = calls("delta.apply")
    put("delta.region_ratio", _mean(a["region"] for a in delta), len(delta))
    put("delta.rescan_ratio", _mean(a["rescan"] for a in delta), len(delta))
    put("delta.fallback_ratio", _mean(float(a["fallback"]) for a in delta), len(delta))
    put("delta.launches", per_op("delta.apply", "launches"), n)
    put("delta.bytes", per_op("delta.apply", "bytes"), n)
    put("obs.unattributed_s", _mean(b.unattributed_s for b in ops), n)
    return values, samples
