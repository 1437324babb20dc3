"""1-D vertex-range partitioning: where each shard of a run executes.

The engines distribute the pipeline over a
:class:`~repro.device.device.DeviceGroup` by splitting the vertex ids into
``n_shards`` contiguous ranges — the classic 1-D block partition of
distributed SpMV.  Contiguity is what makes the split cheap *and* exact:

* CSR rows of one shard are one contiguous slice of ``indptr``/``indices``;
* every per-row kernel of the pipeline (proposition, mutualization, the
  scan's scatter, band extraction) writes only rows it owns, so per-shard
  results concatenate into the single-device arrays bit for bit;
* ownership of any vertex id is one ``searchsorted`` into the range bounds.

:class:`Shards` binds a partition to the devices that run it.  A plain
:class:`~repro.device.device.Device` is the one-shard case — one range
``[0, n)``, no interconnect — so the solo run and the sharded run are the
same engine code (see ``docs/SHARDING.md``).

Empty shards are legal (``n_vertices < n_shards`` simply leaves the tail
shards empty) — the engines skip their launches entirely.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .._validation import INDEX_DTYPE
from ..device.device import Device, DeviceGroup, default_device
from ..errors import ConfigError, ShapeError

__all__ = ["ENV_DEVICES", "Shards", "VertexPartition", "resolve_devices"]

#: Environment variable consulted by :func:`resolve_devices` when no
#: explicit device count is given (mirrors ``REPRO_COMPACTION``).
ENV_DEVICES = "REPRO_DEVICES"


@dataclass(frozen=True)
class VertexPartition:
    """Contiguous vertex ranges ``[bounds[s], bounds[s+1])`` per shard.

    ``bounds`` has length ``n_shards + 1``, starts at 0, ends at
    ``n_vertices`` and is non-decreasing; equal consecutive bounds denote an
    empty shard.
    """

    bounds: np.ndarray

    def __post_init__(self) -> None:
        bounds = np.ascontiguousarray(self.bounds, dtype=INDEX_DTYPE)
        if bounds.ndim != 1 or bounds.size < 2:
            raise ShapeError("partition bounds must be 1-D with >= 2 entries")
        if int(bounds[0]) != 0:
            raise ShapeError(f"partition bounds must start at 0, got {bounds[0]}")
        if bool((np.diff(bounds) < 0).any()):
            raise ShapeError("partition bounds must be non-decreasing")
        object.__setattr__(self, "bounds", bounds)

    @classmethod
    def uniform(cls, n_vertices: int, n_shards: int) -> "VertexPartition":
        """Split ``[0, n_vertices)`` into ``n_shards`` near-equal ranges.

        Shard ``s`` receives ``[floor(s*n/S), floor((s+1)*n/S))``; sizes
        differ by at most one, and shards beyond ``n_vertices`` are empty.
        """
        if n_vertices < 0:
            raise ShapeError(f"n_vertices must be >= 0, got {n_vertices}")
        if n_shards < 1:
            raise ShapeError(f"n_shards must be >= 1, got {n_shards}")
        cuts = np.arange(n_shards + 1, dtype=np.int64)
        return cls(bounds=(cuts * n_vertices) // n_shards)

    # -- queries -----------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return int(self.bounds[-1])

    @property
    def n_shards(self) -> int:
        return int(self.bounds.size - 1)

    @property
    def sizes(self) -> np.ndarray:
        """Vertex count per shard."""
        return np.diff(self.bounds)

    def range_of(self, shard: int) -> tuple[int, int]:
        """Half-open vertex range ``[lo, hi)`` of one shard."""
        if not 0 <= shard < self.n_shards:
            raise ShapeError(f"shard must be in [0, {self.n_shards}), got {shard}")
        return int(self.bounds[shard]), int(self.bounds[shard + 1])

    def is_empty(self, shard: int) -> bool:
        lo, hi = self.range_of(shard)
        return lo == hi

    def owner_of(self, ids: np.ndarray) -> np.ndarray:
        """Shard index owning each vertex id.

        With empty shards several bounds coincide; ``searchsorted(...,
        side="right") - 1`` resolves the tie to the one non-empty shard that
        actually contains the id.
        """
        ids = np.asarray(ids)
        if ids.size and (
            bool((ids < 0).any()) or bool((ids >= self.n_vertices).any())
        ):
            raise ShapeError(
                f"vertex ids must be in [0, {self.n_vertices}) to have an owner"
            )
        return np.searchsorted(self.bounds, ids, side="right").astype(INDEX_DTYPE) - 1

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(shard, lo, hi)`` for every shard, empty ones included."""
        for s in range(self.n_shards):
            lo, hi = self.range_of(s)
            yield s, lo, hi

    def __len__(self) -> int:
        return self.n_shards

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VertexPartition(n_vertices={self.n_vertices}, "
            f"n_shards={self.n_shards}, sizes={self.sizes.tolist()})"
        )


def resolve_devices(devices: int | str | None = None) -> int | None:
    """Resolve a device count from the argument or ``$REPRO_DEVICES``.

    Returns ``None`` when neither is set — the caller stays on a single
    device.  Mirrors the ``REPRO_COMPACTION`` convention: the explicit
    argument wins, the environment variable is the ambient default, and bad
    values raise :class:`~repro.errors.ConfigError` naming their source.
    """
    if devices is not None:
        try:
            value = int(devices)
        except (TypeError, ValueError):
            raise ConfigError(f"devices must be an integer, got {devices!r}") from None
        if value < 1:
            raise ConfigError(f"devices must be >= 1, got {value}")
        return value
    raw = os.environ.get(ENV_DEVICES, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{ENV_DEVICES} must be an integer device count, got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigError(f"{ENV_DEVICES} must be >= 1, got {value}")
    return value


class Shards:
    """The devices one run executes on, one per contiguous vertex range.

    A plain :class:`~repro.device.device.Device` (or ``None``, the default
    device) is one shard covering ``[0, n)`` with no interconnect.  A
    :class:`~repro.device.device.DeviceGroup` spreads the vertices over
    ``partition`` (uniform unless given); with more than one shard, every
    read of another shard's rows is metered on the group's interconnect
    through :meth:`halo`.

    Iterating yields ``(shard, device, lo, hi)`` per shard that owns
    vertices.  Every engine (the proposition rounds, the bidirectional
    scan, band extraction) accepts a :class:`Shards` wherever it accepts a
    device; the pipeline builds one per run so all of them share the
    partition.
    """

    def __init__(
        self,
        device: Device | DeviceGroup | None,
        n_vertices: int,
        partition: VertexPartition | None = None,
    ):
        if isinstance(device, DeviceGroup):
            partition = partition or VertexPartition.uniform(n_vertices, len(device))
            if partition.n_shards != len(device):
                raise ConfigError(
                    f"partition has {partition.n_shards} shards for a "
                    f"{len(device)}-device group"
                )
            self.devices = list(device)
            self.interconnect = device.interconnect if len(device) > 1 else None
        else:
            if partition is not None:
                raise ConfigError("partition= requires a DeviceGroup device")
            partition = VertexPartition.uniform(n_vertices, 1)
            self.devices = [device or default_device()]
            self.interconnect = None
        if partition.n_vertices != n_vertices:
            raise ShapeError(
                f"partition covers {partition.n_vertices} vertices, graph has {n_vertices}"
            )
        self.partition = partition
        self._shards = [
            (s, self.devices[s], lo, hi)
            for s, lo, hi in partition
            if hi > lo or partition.n_shards == 1
        ]

    @classmethod
    def of(cls, device, n_vertices: int) -> "Shards":
        """``device`` as a :class:`Shards` over ``n_vertices`` vertices."""
        if isinstance(device, Shards):
            if device.partition.n_vertices != n_vertices:
                raise ShapeError(
                    f"shards cover {device.partition.n_vertices} vertices, "
                    f"the input has {n_vertices}"
                )
            return device
        return cls(device, n_vertices)

    @property
    def exchanges(self) -> bool:
        """Whether rows live on more than one device (halo traffic exists)."""
        return self.interconnect is not None

    def __iter__(self) -> Iterator[tuple[int, Device, int, int]]:
        return iter(self._shards)

    def halo(
        self,
        shard: int,
        ids: np.ndarray,
        nbytes_per_id: int,
        tag: str,
        *,
        push: bool = False,
    ) -> None:
        """Meter one halo exchange of ``shard``.

        ``ids`` are the vertex ids the shard touches; the ones it owns are
        free.  The remote ones are deduplicated (one message per remote row
        per step) and grouped per owning peer device.  ``push=False`` pulls
        from the owner, ``push=True`` ships shard-computed values to it.
        """
        lo, hi = self.partition.range_of(shard)
        ids = np.asarray(ids)
        remote = ids[(ids < lo) | (ids >= hi)]
        if remote.size == 0:
            return
        owners = self.partition.owner_of(np.unique(remote))
        me = self.devices[shard].name
        for other, count in zip(*np.unique(owners, return_counts=True)):
            peer = self.devices[int(other)].name
            src, dst = (me, peer) if push else (peer, me)
            self.interconnect.transfer(
                int(count) * nbytes_per_id, src=src, dst=dst, tag=tag
            )
