"""The sort-hoisted, frontier-compacted proposition engine must equal
propose_edges exactly."""

import numpy as np
import pytest

from repro.core import ParallelFactorConfig, parallel_factor
from repro.core.charge import vertex_charges
from repro.core.factor import propose_edges
from repro.core.proposer import PropositionEngine
from repro.core.structures import NO_PARTNER
from repro.errors import FactorError, ShapeError
from repro.graphs import aniso2, figure1_graph, random_weighted_graph
from repro.sparse import from_edges, prepare_graph


def test_parallel_factor_unchanged_by_optimization(rng):
    """The optimization is observationally pure: parallel_factor results are
    exactly the reference ones."""
    g = random_weighted_graph(100, 500, rng)
    res = parallel_factor(g, ParallelFactorConfig(n=2, max_iterations=8))
    res.factor.validate(g)
    # reference replay with the unprepared kernel
    from repro.core.factor import _confirm_mutual

    confirmed = np.full((100, 2), NO_PARTNER, dtype=np.int64)
    cfg = ParallelFactorConfig(n=2, max_iterations=8)
    for k in range(8):
        charges = (
            vertex_charges(100, k, p=cfg.p, seed=cfg.seed)
            if cfg.charging_enabled(k)
            else None
        )
        cols, _, counts = propose_edges(g, confirmed, 2, charges=charges)
        if counts.sum() == 0 and not cfg.charging_enabled(k):
            break
        degree = (confirmed != NO_PARTNER).sum(axis=1)
        _confirm_mutual(confirmed, degree, cols)
    from repro.core import Factor

    assert res.factor == Factor(confirmed)


# ---------------------------------------------------------------------------
# PropositionEngine: frontier compaction must be observationally invisible
# ---------------------------------------------------------------------------


def _graph_suite(rng):
    """Random, stencil and paper-example graphs (ISSUE acceptance suite)."""
    return [
        random_weighted_graph(70, 350, rng),
        prepare_graph(aniso2(7)),
        prepare_graph(figure1_graph()),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_engine_matches_propose_edges_fresh(rng, n):
    for g in _graph_suite(rng):
        engine = PropositionEngine(g, n)
        confirmed = np.full((g.n_rows, n), NO_PARTNER, dtype=np.int64)
        for k in (None, 0, 1):
            charges = None if k is None else vertex_charges(g.n_rows, k)
            a = propose_edges(g, confirmed, n, charges=charges)
            b = engine.propose(confirmed, charges=charges)
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_engine_matches_across_rounds(rng, n):
    """Replay Algorithm 2 in lock-step; compaction between rounds."""
    from repro.core.factor import _confirm_mutual

    g = random_weighted_graph(60, 300, rng)
    engine = PropositionEngine(g, n)
    confirmed = np.full((60, n), NO_PARTNER, dtype=np.int64)
    prev_frontier = engine.frontier_size
    for k in range(6):
        charges = vertex_charges(60, k) if k % 5 else None
        a = propose_edges(g, confirmed, n, charges=charges)
        b = engine.propose(confirmed, charges=charges)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        degree = (confirmed != NO_PARTNER).sum(axis=1)
        _confirm_mutual(confirmed, degree, a[0])
        engine.compact(confirmed)
        assert engine.frontier_size <= prev_frontier, "frontier must shrink"
        prev_frontier = engine.frontier_size


@pytest.mark.parametrize("schedule", [(1, 0), (5, 0), (5, 1)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_parallel_factor_matches_reference(rng, n, schedule):
    """Engine-driven parallel_factor equals the paper-exact loop bit for bit,
    over every charging schedule."""
    from repro.core.ablations import reference_parallel_factor

    m, k_m = schedule
    for g in _graph_suite(rng):
        cfg = ParallelFactorConfig(n=n, max_iterations=8, m=m, k_m=k_m)
        res = parallel_factor(g, cfg, coverage_matrix=g)
        ref = reference_parallel_factor(g, cfg, coverage_matrix=g)
        assert res.factor == ref.factor
        assert res.iterations == ref.iterations
        assert res.m_max == ref.m_max
        assert res.converged == ref.converged
        assert res.proposals_per_iteration == ref.proposals_per_iteration
        assert res.coverage_history == ref.coverage_history


def test_engine_frontier_history_monotone(rng):
    g = random_weighted_graph(100, 500, rng)
    res = parallel_factor(g, ParallelFactorConfig(n=2, max_iterations=10))
    hist = res.frontier_history
    assert len(hist) == res.iterations
    assert hist[0] == g.nnz  # no self-loops in a prepared graph
    assert all(a >= b for a, b in zip(hist, hist[1:]))
    assert res.final_frontier_fraction is not None
    assert res.final_frontier_fraction <= 1.0


def test_engine_compact_retires_confirmed_and_saturated(path_graph):
    engine = PropositionEngine(path_graph, 2)
    assert engine.frontier_size == path_graph.nnz
    assert engine.total_edges == path_graph.nnz
    # confirm the whole 5-vertex path: every edge pair is confirmed
    confirmed = np.full((5, 2), NO_PARTNER, dtype=np.int64)
    confirmed[0, 0] = 1
    confirmed[1] = [0, 2]
    confirmed[2] = [1, 3]
    confirmed[3] = [2, 4]
    confirmed[4, 0] = 3
    dropped = engine.compact(confirmed)
    assert dropped == path_graph.nnz
    assert engine.frontier_size == 0
    # compaction is idempotent once empty
    assert engine.compact(confirmed) == 0


def test_engine_validation(path_graph):
    with pytest.raises(ShapeError):
        PropositionEngine(path_graph, 0)
    engine = PropositionEngine(path_graph, 2)
    with pytest.raises(ShapeError):
        engine.propose(np.zeros((4, 2), dtype=np.int64))
    with pytest.raises(ShapeError):
        engine.compact(np.zeros((4, 2), dtype=np.int64))


def test_engine_rejects_invalid_weights():
    g_neg = from_edges(3, [0, 1], [1, 2], [-1.0, 1.0])
    with pytest.raises(FactorError):
        PropositionEngine(g_neg, 2)
    from repro.sparse import CSRMatrix

    g_nan = CSRMatrix(
        indptr=[0, 1, 2], indices=[1, 0], data=[np.nan, np.nan], shape=(2, 2)
    )
    with pytest.raises(FactorError, match="NaN"):
        PropositionEngine(g_nan, 2)
