"""Kernel-launch accounting for the simulated device.

Every data-parallel step of the paper's algorithms is executed through
:meth:`Device.launch`.  Each launch opens one ``kernel`` span on a
:class:`~repro.obs.tracer.Tracer` and closes it with

* which arrays were read and written and how many bytes that moved through
  (simulated) global memory, mirroring the traffic analysis of Table 2 of the
  paper, and
* optional *convergence telemetry*: how many scan lanes were still active
  when the launch fired (the frontier size of the convergence-aware
  bidirectional scan), against the total lane count.

The span's duration is the launch's wall-clock time: the tracer is the only
clock, and a :class:`KernelRecord` is a view over one closed span
(:meth:`KernelRecord.from_span`).  The span goes to the device's
``tracer=`` when one was passed, else to the ambient tracer installed with
:func:`repro.obs.use_tracer` (nested under the caller's phase/stage spans),
else — on a recording device — to a tracer of the device's own.

Records survive kernel failures: a body that raises still closes its span
(with the time spent up to the exception and an ``error`` attribute naming
the exception type), so a partially failed run keeps a truthful Figure-6
style breakdown.

The device does not try to emulate warps or shared memory — the algorithms in
the paper are specified at the granularity of whole kernel launches over all
vertices/nonzeros, and a vectorized NumPy expression has exactly those
semantics.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from ..obs.tracer import Span, Tracer, current_tracer
from .interconnect import Interconnect

__all__ = ["Device", "DeviceGroup", "KernelLaunch", "KernelRecord", "default_device"]


#: Span attributes owned by the launch accounting; notes cannot shadow them.
_ACCOUNTING_KEYS = frozenset(
    {"bytes_read", "bytes_written", "active_lanes", "total_lanes", "error"}
)


def _nbytes(arrays: Iterable[np.ndarray]) -> int:
    total = 0
    for a in arrays:
        total += int(np.asarray(a).nbytes)
    return total


@dataclass
class KernelRecord:
    """Accounting record for one simulated kernel launch."""

    name: str
    bytes_read: int
    bytes_written: int
    seconds: float
    launch_index: int
    #: Lanes still unconverged when the launch fired (scan kernels only).
    active_lanes: int | None = None
    #: Total lane count the frontier is measured against (scan kernels only).
    total_lanes: int | None = None
    #: Free-form annotations attached by the kernel body (e.g. the per-round
    #: compaction decision of the frontier engines).  Empty for plain kernels.
    notes: dict = field(default_factory=dict)

    @classmethod
    def from_span(cls, span: Span, launch_index: int) -> "KernelRecord":
        """The record of one ``kernel`` span, as written by :meth:`Device.launch`.

        ``seconds`` is the span's duration (0 while it is still open);
        every attribute other than the launch accounting is a note.
        """
        at = span.attributes
        return cls(
            name=span.name,
            bytes_read=int(at.get("bytes_read", 0)),
            bytes_written=int(at.get("bytes_written", 0)),
            seconds=span.seconds or 0.0,
            launch_index=launch_index,
            active_lanes=at.get("active_lanes"),
            total_lanes=at.get("total_lanes"),
            notes={k: v for k, v in at.items() if k not in _ACCOUNTING_KEYS},
        )

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def active_fraction(self) -> float | None:
        """Frontier occupancy of this launch, or ``None`` without telemetry."""
        if self.active_lanes is None or not self.total_lanes:
            return None
        return self.active_lanes / self.total_lanes


class KernelLaunch:
    """Handle yielded by :meth:`Device.launch`.

    Kernels whose buffer footprint is only known *inside* the body (e.g. the
    compacted gathers of the frontier-based scan) register their traffic on
    this handle instead of declaring full arrays up front.  On a
    non-recording device the handle is inert.
    """

    __slots__ = (
        "enabled",
        "bytes_read",
        "bytes_written",
        "active_lanes",
        "total_lanes",
        "notes",
    )

    def __init__(
        self,
        *,
        enabled: bool = True,
        active_lanes: int | None = None,
        total_lanes: int | None = None,
    ):
        self.enabled = enabled
        self.bytes_read = 0
        self.bytes_written = 0
        self.active_lanes = active_lanes
        self.total_lanes = total_lanes
        self.notes: dict = {}

    def reads(self, *arrays: np.ndarray) -> None:
        """Register additional buffers read by this launch."""
        if self.enabled:
            self.bytes_read += _nbytes(arrays)

    def writes(self, *arrays: np.ndarray) -> None:
        """Register additional buffers written by this launch."""
        if self.enabled:
            self.bytes_written += _nbytes(arrays)

    def meter(self, *, read: int = 0, written: int = 0) -> None:
        """Register raw byte counts of modeled traffic with no host array.

        For kernels whose host emulation touches less (or differently
        shaped) data than the modeled device kernel moves: the scan reads
        whole far tuples of which the host gathers only the matching words,
        and the delta engine's fused launches stream region-sized buffers.
        """
        if self.enabled:
            self.bytes_read += int(read)
            self.bytes_written += int(written)

    def telemetry(
        self, *, active_lanes: int | None = None, total_lanes: int | None = None
    ) -> None:
        """Attach (or override) the frontier telemetry of this launch."""
        if active_lanes is not None:
            self.active_lanes = int(active_lanes)
        if total_lanes is not None:
            self.total_lanes = int(total_lanes)

    def annotate(self, **notes) -> None:
        """Attach free-form notes to this launch's record and span."""
        if self.enabled:
            self.notes.update(notes)


#: Shared inert handle for non-recording devices.
_DISABLED_LAUNCH = KernelLaunch(enabled=False)



class Device:
    """A simulated data-parallel device.

    Parameters
    ----------
    name:
        Purely informational label.
    record:
        When ``False`` the device skips all bookkeeping; launches still run
        their bodies.  Useful to remove metering overhead from tight loops.
    tracer:
        Span sink for the launches.  When ``None`` (the default), the
        ambient tracer installed with :func:`repro.obs.use_tracer` is used
        — and when none is installed either, a recording device keeps its
        spans on a tracer of its own (a non-recording one records nothing).
    """

    def __init__(
        self,
        name: str = "simulated-gpu",
        record: bool = True,
        tracer: Tracer | None = None,
    ):
        self.name = name
        self.record = record
        self.tracer = tracer
        self._own_tracer = Tracer(name)
        #: This device's closed kernel spans, in launch order.
        self._spans: list[Span] = []

    # -- launching ---------------------------------------------------------
    @contextmanager
    def launch(
        self,
        name: str,
        *,
        reads: Iterable[np.ndarray] = (),
        writes: Iterable[np.ndarray] = (),
        active_lanes: int | None = None,
        total_lanes: int | None = None,
    ) -> Iterator[KernelLaunch]:
        """Run one kernel launch.

        The body of the ``with`` block is the kernel; ``reads``/``writes``
        declare the global-memory buffers it touches.  Bytes are metered from
        the declared arrays, wall-clock time is the duration of the launch's
        ``kernel`` span.  The yielded :class:`KernelLaunch` lets the body
        register buffers whose size is only known mid-kernel, and attach
        frontier telemetry.

        The span is closed even when the body raises — the exception still
        propagates, but timing and traffic of the failed launch stay in the
        log, and the span carries an ``error`` attribute naming the
        exception type.
        """
        tracer = self.tracer if self.tracer is not None else current_tracer()
        if not self.record and tracer is None:
            yield _DISABLED_LAUNCH
            return
        if not self.record:
            # tracing-only launch: a span, no byte metering
            with tracer.span(name, category="kernel"):
                yield _DISABLED_LAUNCH
            return
        if tracer is None:
            tracer = self._own_tracer
        handle = KernelLaunch(active_lanes=active_lanes, total_lanes=total_lanes)
        handle.bytes_read = _nbytes(reads)
        handle.bytes_written = _nbytes(writes)
        span = tracer.start_span(name, category="kernel")
        error = None
        try:
            yield handle
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            # Notes ride the span as extra attributes; the accounting keys
            # always win on collision.
            extra = {k: v for k, v in handle.notes.items() if k not in _ACCOUNTING_KEYS}
            tracer.end_span(
                span,
                bytes_read=handle.bytes_read,
                bytes_written=handle.bytes_written,
                active_lanes=handle.active_lanes,
                total_lanes=handle.total_lanes,
                error=error,
                **extra,
            )
            self._spans.append(span)

    # -- queries -----------------------------------------------------------
    @property
    def kernels(self) -> list[KernelRecord]:
        """One record per launch, in launch order, built from the spans."""
        return [KernelRecord.from_span(span, i) for i, span in enumerate(self._spans)]

    @property
    def launch_count(self) -> int:
        return len(self._spans)

    def records(self, name_prefix: str | None = None) -> list[KernelRecord]:
        """All launch records, optionally filtered by name prefix."""
        if name_prefix is None:
            return self.kernels
        return [k for k in self.kernels if k.name.startswith(name_prefix)]

    def total_bytes(self, name_prefix: str | None = None) -> int:
        return sum(k.bytes_total for k in self.records(name_prefix))

    def total_seconds(self, name_prefix: str | None = None) -> float:
        return sum(k.seconds for k in self.records(name_prefix))

    def convergence_history(self, name_prefix: str | None = None) -> list[int]:
        """Active-lane counts of the launches that carry frontier telemetry,
        in launch order — the convergence curve of a scan (or of the
        proposition engine, via the ``propose``/``mutualize`` prefixes)."""
        return [
            k.active_lanes
            for k in self.records(name_prefix)
            if k.active_lanes is not None
        ]

    def frontier_fractions(self, name_prefix: str | None = None) -> list[float]:
        """Per-launch frontier occupancy (active / total lanes), in launch
        order, for the launches that report both counts."""
        return [
            f
            for f in (k.active_fraction for k in self.records(name_prefix))
            if f is not None
        ]

    def reset(self) -> None:
        self._spans.clear()
        self._own_tracer = Tracer(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Device(name={self.name!r}, launches={self.launch_count})"


class DeviceGroup:
    """N simulated devices plus the interconnect between them.

    Passed as ``device=``, a group shards the pipeline: the engines run each
    vertex-range shard on one member device
    (:class:`repro.core.partition.Shards`); traffic between shards is metered on
    :attr:`interconnect` instead.  Members are named ``gpu0 … gpuN-1`` so
    their launches stay distinguishable in traces
    (:func:`repro.device.trace.summarize` aggregates per device *and* as a
    group total).

    The group duck-types the query surface of a single :class:`Device`
    (``launch_count``, ``records``, ``total_bytes``, ``total_seconds``,
    ``convergence_history``, ``frontier_fractions``, ``reset``) by
    aggregating over its members, so run-report builders and renderers
    accept a group wherever they accept a device.
    """

    def __init__(
        self,
        n_devices: int,
        *,
        name: str = "gpu-group",
        record: bool = True,
        tracer: Tracer | None = None,
        device_prefix: str = "gpu",
    ):
        if int(n_devices) < 1:
            raise ValueError(f"a device group needs >= 1 devices, got {n_devices}")
        self.name = name
        self.record = record
        self.devices = [
            Device(f"{device_prefix}{i}", record=record, tracer=tracer)
            for i in range(int(n_devices))
        ]
        self.interconnect = Interconnect(record=record)

    # -- container protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self.devices)

    def __getitem__(self, i: int) -> Device:
        return self.devices[i]

    def __iter__(self) -> Iterator[Device]:
        return iter(self.devices)

    # -- aggregate queries (Device duck-type) ------------------------------
    @property
    def kernels(self) -> list[KernelRecord]:
        """All members' launch records, in member order."""
        out: list[KernelRecord] = []
        for dev in self.devices:
            out.extend(dev.kernels)
        return out

    @property
    def launch_count(self) -> int:
        return sum(dev.launch_count for dev in self.devices)

    def records(self, name_prefix: str | None = None) -> list[KernelRecord]:
        out: list[KernelRecord] = []
        for dev in self.devices:
            out.extend(dev.records(name_prefix))
        return out

    def total_bytes(self, name_prefix: str | None = None) -> int:
        return sum(dev.total_bytes(name_prefix) for dev in self.devices)

    def total_seconds(self, name_prefix: str | None = None) -> float:
        return sum(dev.total_seconds(name_prefix) for dev in self.devices)

    def convergence_history(self, name_prefix: str | None = None) -> list[int]:
        out: list[int] = []
        for dev in self.devices:
            out.extend(dev.convergence_history(name_prefix))
        return out

    def frontier_fractions(self, name_prefix: str | None = None) -> list[float]:
        out: list[float] = []
        for dev in self.devices:
            out.extend(dev.frontier_fractions(name_prefix))
        return out

    def per_device_launches(self) -> dict[str, int]:
        """Launch count per member device, keyed by device name."""
        return {dev.name: dev.launch_count for dev in self.devices}

    def per_device_bytes(self) -> dict[str, int]:
        """Total metered bytes per member device, keyed by device name."""
        return {dev.name: dev.total_bytes() for dev in self.devices}

    def reset(self) -> None:
        for dev in self.devices:
            dev.reset()
        self.interconnect.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = (
            f"{self.devices[0].name}..{self.devices[-1].name}"
            if len(self.devices) > 1
            else self.devices[0].name
        )
        return (
            f"DeviceGroup(name={self.name!r}, devices=[{names}], "
            f"launches={self.launch_count}, "
            f"interconnect_bytes={self.interconnect.total_bytes()})"
        )


@dataclass
class _DefaultDeviceHolder:
    device: Device = field(default_factory=lambda: Device(record=False))


_HOLDER = _DefaultDeviceHolder()


def default_device() -> Device:
    """The process-wide default device (bookkeeping disabled)."""
    return _HOLDER.device
