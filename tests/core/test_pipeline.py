"""Unit tests for the end-to-end linear-forest pipeline."""

import numpy as np
import pytest

from repro.core import ParallelFactorConfig, extract_linear_forest, is_tridiagonal_under
from repro.core.pipeline import PHASE_EXTRACT, PHASE_FACTOR, PHASE_SCANS
from repro.device import Device
from repro.errors import ConfigError, FactorError
from repro.graphs import aniso2, random_weighted_graph
from repro.sparse import CSRMatrix


def test_pipeline_on_aniso2():
    a = aniso2(12)
    result = extract_linear_forest(a)
    result.forest.validate(result.graph)
    assert int(result.forest.degrees.max()) <= 2
    assert is_tridiagonal_under(result.forest, result.perm)
    assert 0.0 < result.coverage <= 1.0
    assert np.array_equal(np.sort(result.perm), np.arange(a.n_rows))


def test_pipeline_timing_phases():
    a = aniso2(8)
    result = extract_linear_forest(a)
    assert set(result.timings) == {PHASE_FACTOR, PHASE_SCANS, PHASE_EXTRACT}
    assert sum(result.timings.values()) > 0.0


def test_pipeline_rejects_non_2_factor():
    a = aniso2(6)
    with pytest.raises(ConfigError):
        extract_linear_forest(a, ParallelFactorConfig(n=3))


def with_bad_offdiagonal(a, value):
    """``a`` with its first off-diagonal value replaced by ``value``."""
    data = a.data.copy()
    data[np.flatnonzero(a.nnz_rows != a.indices)[0]] = value
    return CSRMatrix(a.indptr, a.indices, data, a.shape)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_pipeline_rejects_non_finite_weights(bad):
    """NaN/±inf used to vanish in prepare_graph and come back as coverage=nan;
    every entry path into the pipeline now refuses them with a typed error."""
    from repro.batch import extract_linear_forest_batch

    a = with_bad_offdiagonal(random_weighted_graph(20, 50, np.random.default_rng(0)), bad)
    with pytest.raises(FactorError, match="non-finite"):
        extract_linear_forest(a, device=Device(record=False))
    with pytest.raises(FactorError, match="non-finite"):
        extract_linear_forest(a, devices=2)
    with pytest.raises(FactorError, match="non-finite"):
        extract_linear_forest_batch([aniso2(4), a])


def test_pipeline_extraction_matches_permuted_matrix(rng):
    """Every extracted band coefficient equals the corresponding entry of
    Q^T A Q, and non-forest band entries are zero."""
    a = random_weighted_graph(60, 200, rng)
    result = extract_linear_forest(a, ParallelFactorConfig(n=2, max_iterations=8))
    permuted = a.permute(result.perm).to_dense()
    dense_t = result.tridiagonal.to_dense()
    n = a.n_rows
    new_index = np.empty(n, dtype=int)
    new_index[result.perm] = np.arange(n)
    u, v = result.forest.edges()
    forest_band = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(forest_band, True)
    forest_band[new_index[u], new_index[v]] = True
    forest_band[new_index[v], new_index[u]] = True
    np.testing.assert_allclose(dense_t[forest_band], permuted[forest_band])
    assert not dense_t[~forest_band].any()


def test_pipeline_device_accounting():
    a = aniso2(8)
    dev = Device()
    extract_linear_forest(a, device=dev)
    names = {r.name.split("[")[0] for r in dev.kernels}
    assert "propose" in names
    assert "bidirectional-scan" in names
    assert "extract-coefficients" in names


def test_pipeline_coverage_consistency():
    from repro.core import coverage

    a = aniso2(10)
    result = extract_linear_forest(a)
    assert result.coverage == pytest.approx(coverage(a, result.forest))
