"""VertexPartition unit tests and sharded-pipeline edge cases.

The second half drives the engines, sharded over a ``DeviceGroup``, through the degenerate layouts a
1-D partition produces — more shards than vertices, empty shards,
single-vertex shards, zero-edge graphs — and pins the halo contract: when no
edge and no band position crosses a shard cut, **zero** bytes cross the
interconnect; when a path spans shards, the halo is non-empty and the result
is still bit-identical to the solo run.
"""

import numpy as np
import pytest

from repro.core import VertexPartition, extract_linear_forest
from repro.device import Device, DeviceGroup
from repro.errors import ShapeError
from repro.sparse import from_edges


def assert_bit_identical(a, group, **kwargs):
    """Run solo + sharded on ``a`` and compare the result arrays."""
    solo = extract_linear_forest(a, device=Device(record=False), **kwargs)
    sharded = extract_linear_forest(a, device=group, **kwargs)
    assert np.array_equal(sharded.forest.neighbors, solo.forest.neighbors)
    assert np.array_equal(sharded.paths.path_id, solo.paths.path_id)
    assert np.array_equal(sharded.paths.position, solo.paths.position)
    assert np.array_equal(sharded.perm, solo.perm)
    assert np.array_equal(sharded.tridiagonal.dl, solo.tridiagonal.dl)
    assert np.array_equal(sharded.tridiagonal.d, solo.tridiagonal.d)
    assert np.array_equal(sharded.tridiagonal.du, solo.tridiagonal.du)
    assert sharded.coverage == solo.coverage
    return sharded


# -- VertexPartition unit tests --------------------------------------------


def test_uniform_sizes_differ_by_at_most_one():
    p = VertexPartition.uniform(10, 3)
    assert p.n_vertices == 10
    assert p.n_shards == 3
    assert p.sizes.sum() == 10
    assert p.sizes.max() - p.sizes.min() <= 1


def test_uniform_covers_every_vertex_exactly_once():
    p = VertexPartition.uniform(17, 5)
    seen = []
    for s, lo, hi in p:
        assert (lo, hi) == p.range_of(s)
        seen.extend(range(lo, hi))
    assert seen == list(range(17))


def test_owner_of_matches_ranges():
    p = VertexPartition.uniform(23, 4)
    ids = np.arange(23)
    owners = p.owner_of(ids)
    for s, lo, hi in p:
        assert (owners[lo:hi] == s).all()


def test_more_shards_than_vertices_leaves_empty_shards():
    p = VertexPartition.uniform(2, 5)
    assert p.n_shards == 5
    assert p.sizes.sum() == 2
    assert sum(p.is_empty(s) for s in range(5)) == 3
    # every vertex still has exactly one owner despite coincident bounds
    assert sorted(p.owner_of(np.arange(2)).tolist()) == sorted(
        s for s in range(5) if not p.is_empty(s)
    )


def test_single_vertex_shards():
    p = VertexPartition.uniform(4, 4)
    assert p.sizes.tolist() == [1, 1, 1, 1]
    assert p.owner_of(np.arange(4)).tolist() == [0, 1, 2, 3]


def test_owner_of_rejects_out_of_range_ids():
    p = VertexPartition.uniform(8, 2)
    with pytest.raises(ShapeError):
        p.owner_of(np.array([8]))
    with pytest.raises(ShapeError):
        p.owner_of(np.array([-1]))


def test_invalid_bounds_are_rejected():
    with pytest.raises(ShapeError):
        VertexPartition(bounds=np.array([1, 4]))  # must start at 0
    with pytest.raises(ShapeError):
        VertexPartition(bounds=np.array([0, 5, 3]))  # decreasing
    with pytest.raises(ShapeError):
        VertexPartition(bounds=np.array([0]))  # too short


# -- sharded pipeline edge cases -------------------------------------------


def line_graph(n, seed=0, dtype=np.float64):
    """A single path 0-1-...-(n-1) with distinct random weights."""
    rng = np.random.default_rng(seed)
    u = np.arange(n - 1)
    return from_edges(n, u, u + 1, rng.uniform(0.1, 1.0, n - 1).astype(dtype))


def test_fewer_vertices_than_devices():
    # 8 devices for 3 vertices: five shards are empty and never launch
    a = line_graph(3, seed=1)
    group = DeviceGroup(8)
    assert_bit_identical(a, group)
    launches = group.per_device_launches()
    assert sum(1 for count in launches.values() if count > 0) <= 3


def test_zero_edge_graph_moves_no_interconnect_bytes():
    # no edges, no cycles, no halo: every vertex is its own path
    n = 9
    a = from_edges(n, np.array([], dtype=int), np.array([], dtype=int), np.array([]))
    group = DeviceGroup(3)
    sharded = assert_bit_identical(a, group)
    assert sharded.paths.n_paths == n
    assert group.interconnect.total_bytes() == 0
    assert group.interconnect.transfer_count == 0


def test_block_aligned_graph_moves_no_interconnect_bytes():
    # four 6-vertex path blocks, each wholly inside one shard of a 4-way
    # uniform partition of 24 vertices: no edge and (because path ids are
    # block-minimal vertex ids) no permuted band position crosses a cut
    rng = np.random.default_rng(3)
    u = np.concatenate([b * 6 + np.arange(5) for b in range(4)])
    a = from_edges(24, u, u + 1, rng.uniform(0.1, 1.0, u.size))
    group = DeviceGroup(4)
    assert_bit_identical(a, group)
    assert group.interconnect.total_bytes() == 0
    assert group.interconnect.transfer_count == 0


def test_isolated_vertices_on_shard_boundaries():
    # vertices 3,4,5 (spanning the 2-shard cut of 8 vertices at 4) are
    # isolated; edges exist only inside each half, so the halo stays empty
    rng = np.random.default_rng(5)
    u = np.array([0, 1, 6])
    v = np.array([1, 2, 7])
    a = from_edges(8, u, v, rng.uniform(0.1, 1.0, 3))
    group = DeviceGroup(2)
    sharded = assert_bit_identical(a, group)
    assert sharded.paths.n_paths == 5  # two paths + three singletons
    assert group.interconnect.total_bytes() == 0
    assert group.interconnect.transfer_count == 0


def test_path_spanning_three_shards_exchanges_halo():
    a = line_graph(24, seed=7)
    group = DeviceGroup(3)
    assert_bit_identical(a, group)
    # the path crosses both cuts: propose and scan halos must be non-empty
    assert group.interconnect.total_bytes() > 0
    assert group.interconnect.total_bytes("halo.degree") > 0
    assert group.interconnect.total_bytes("halo.scan") > 0


def test_single_vertex_shards_pipeline():
    a = line_graph(4, seed=11)
    group = DeviceGroup(4)
    assert_bit_identical(a, group)
    # every edge is a cut edge on 1-vertex shards
    assert group.interconnect.total_bytes() > 0


def test_explicit_partition_is_honoured():
    # an intentionally skewed partition still produces identical bits
    a = line_graph(12, seed=13)
    partition = VertexPartition(bounds=np.array([0, 2, 2, 12]))
    group = DeviceGroup(3)
    solo = extract_linear_forest(a, device=Device(record=False))
    sharded = extract_linear_forest(a, device=group, partition=partition)
    assert np.array_equal(sharded.forest.neighbors, solo.forest.neighbors)
    assert np.array_equal(sharded.perm, solo.perm)
    # the empty middle shard never launches
    assert group.per_device_launches()["gpu1"] == 0
