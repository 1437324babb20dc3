"""Figure 6 — setup-time breakdown of the tridiagonal preconditioner.

Per matrix: the fraction of the AlgTriScalPrecond setup spent in the
[0,2]-factor computation, the bidirectional scans and the coefficient
extraction (paper: extraction is at most ~10%), plus the absolute total.
"""

import pytest

from repro.analysis import render_table, series_to_tsv
from repro.core import ParallelFactorConfig, extract_linear_forest
from repro.core.pipeline import PHASE_EXTRACT, PHASE_FACTOR, PHASE_SCANS
from repro.obs import phase_fractions

from .conftest import bench_suite, emit

pytestmark = pytest.mark.budget


def test_fig6_setup_breakdown(results_dir, matrices, benchmark):
    headers = ["matrix", "factor %", "scans %", "extraction %", "total (ms)"]
    rows = []
    extract_fractions = []
    series = {}
    for name in bench_suite():
        a = matrices[name]
        result = extract_linear_forest(
            a, ParallelFactorConfig(n=2, max_iterations=5, m=5, k_m=0)
        )
        fr = phase_fractions(result.timings)
        total_ms = sum(result.timings.values()) * 1e3
        rows.append([
            name,
            100.0 * fr.get(PHASE_FACTOR, 0.0),
            100.0 * fr.get(PHASE_SCANS, 0.0),
            100.0 * fr.get(PHASE_EXTRACT, 0.0),
            total_ms,
        ])
        extract_fractions.append(fr.get(PHASE_EXTRACT, 0.0))
        series[name] = [
            fr.get(PHASE_FACTOR, 0.0), fr.get(PHASE_SCANS, 0.0), fr.get(PHASE_EXTRACT, 0.0)
        ]

    emit(
        results_dir,
        "fig6_breakdown",
        render_table(
            headers, rows, digits=1,
            title="Figure 6: AlgTriScalPrecond setup-time breakdown (M=5, m=5, k_m=0, n=2)",
        ),
    )
    series_to_tsv(results_dir / "fig6_fractions.tsv", series)

    # the paper's claim: coefficient extraction is a small fraction of the
    # setup (at most ~10%); factor + scans dominate
    assert max(extract_fractions) < 0.35
    assert sum(extract_fractions) / len(extract_fractions) < 0.2

    # pytest-benchmark record: the full setup on the reference matrix
    a = matrices["aniso2"]
    benchmark.pedantic(
        lambda: extract_linear_forest(a, ParallelFactorConfig(n=2, max_iterations=5)),
        rounds=3,
        iterations=1,
    )
