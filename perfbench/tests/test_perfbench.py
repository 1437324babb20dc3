"""The benchmark's own tests, on the tiny smoke sizes of every workload.

They check that every metric BENCHMARK.json names is emitted with a unit
and a sample count, that the verifier fails corrupted results, and that the
counts a run reports repeat exactly for a fixed seed.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.serve.server as server
from repro.core import TridiagonalSystem
from repro.graphs import aniso2
from repro.serve import ReproServer

from perfbench import bench, layers, run, verify, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)
SEED = 7


def smoke(name: str, trace: bool = False) -> bench.Report:
    """A smoke run of the fewest whole rounds: two, or three when traced.

    One serve round holds every request kind: misses, hits and updates.
    """
    return bench.run(name, SEED, 0, trace=trace, smoke=True)


@pytest.fixture(scope="module")
def runs():
    """Per workload: one untraced and two traced smoke runs, one seed."""
    return {
        name: {
            "plain": smoke(name, False),
            "traced": [smoke(name, True), smoke(name, True)],
        }
        for name in NAMES
    }


def test_benchmark_json_matches_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert run._parse([]).seconds == SPEC["run_seconds"]
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == NAMES
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]][0]
        assert len(w["why"]) <= 200
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in layers.PER_LAYER.items()
    }


@pytest.mark.parametrize("name", NAMES)
def test_every_named_metric_is_emitted_with_unit_and_samples(runs, name):
    plain = runs[name]["plain"]
    assert plain.correct
    assert set(plain.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for metric, (value, unit, samples) in plain.metrics.items():
        assert unit == bench.END_TO_END[metric][0]
        assert samples >= 1 and value > 0, metric
    traced = runs[name]["traced"][0]
    assert traced.correct
    assert set(traced.metrics) == {m["name"] for m in SPEC["per_layer"]}
    for metric, (value, unit, samples) in traced.metrics.items():
        assert unit == layers.PER_LAYER[metric][0]
        assert isinstance(samples, int) and isinstance(value, float)
    json.dumps(traced.result_json())  # the result line is valid JSON


@pytest.mark.parametrize("name", NAMES)
def test_layers_that_run_are_measured(runs, name):
    metrics = runs[name]["traced"][0].metrics
    assert metrics["device.launches"][0] > 0
    assert metrics["sparse.prepare_s"][0] > 0
    assert metrics["core.factor.rounds"][0] > 0
    if name.startswith("extract"):
        assert metrics["core.scan.launches"][0] > 0
        assert metrics["core.extraction.s"][0] > 0
    if name == "serve-mix":
        for metric in ("serve.encode_s", "serve.load_matrix_s", "tune.fingerprint_s",
                       "graphs.build_s", "serve.response_bytes", "serve.cache.hit_ratio",
                       "delta.apply_s", "delta.edit_matrix_s"):
            assert metrics[metric][0] > 0, metric
        assert 0 < metrics["delta.region_ratio"][0] <= 1


def _span_counts(report) -> list:
    ops, _ = layers.breakdown(report.tracer)
    return [
        (
            b.device["launches"],
            b.device["bytes"],
            [(n, {k: v for k, v in a.items() if not k.endswith("_s")}) for n, a in b.calls],
        )
        for b in ops
    ]


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly_for_a_fixed_seed(runs, name):
    first, second = runs[name]["traced"]
    assert [op.counts for op in first.ops] == [op.counts for op in second.ops]
    assert _span_counts(first) == _span_counts(second)
    counts = [m for m, (unit, _, _) in layers.PER_LAYER.items() if unit != "s"]
    assert {m: first.metrics[m] for m in counts} == {m: second.metrics[m] for m in counts}
    # the untraced run shares coverage and response bytes op for op; it runs
    # two rounds, the traced runs three
    plain = runs[name]["plain"].ops
    assert len(first.ops) == len(plain) * 3 // 2
    assert [op.counts for op in plain] == [op.counts for op in first.ops[: len(plain)]]


def test_unattributed_time_is_the_op_wall_outside_top_level_layers(runs):
    ops, _ = layers.breakdown(runs["extract-aniso2"]["traced"][0].tracer)
    for b in ops:
        assert 0 <= b.unattributed_s < b.seconds
        assert sum(b.self_s.values()) + b.unattributed_s == pytest.approx(b.seconds)


def _swap_first_two(values):
    values = values.copy() if hasattr(values, "copy") else list(values)
    values[0], values[1] = values[1], values[0]
    return values


def test_digests_and_structure_reject_corrupted_results():
    a = aniso2(16)
    result = repro.extract_linear_forest(a)
    assert verify.structure_ok(a, result)
    digest = verify.result_digest(result)
    swapped = dataclasses.replace(result, perm=_swap_first_two(result.perm))
    assert not verify.structure_ok(a, swapped)
    assert verify.result_digest(swapped) != digest
    tri = result.tridiagonal
    band = tri.d.copy()
    band[3] += 1.0
    changed = dataclasses.replace(result, tridiagonal=TridiagonalSystem(tri.dl, band, tri.du))
    assert verify.result_digest(changed) != digest
    payload = {
        "perm": result.perm.tolist(),
        "path_id": result.paths.path_id.tolist(),
        "position": result.paths.position.tolist(),
        "bands": {k: getattr(tri, k).tolist() for k in ("dl", "d", "du")},
        "value_dtype": str(tri.d.dtype),
    }
    assert verify.payload_digest(payload) == digest
    payload["bands"]["du"][0] += 0.5
    assert verify.payload_digest(payload) != digest


def test_extract_run_fails_a_swapped_perm_entry(monkeypatch):
    real = repro.extract_linear_forest

    def corrupt(a, *args, **kwargs):
        result = real(a, *args, **kwargs)
        if kwargs.get("devices"):  # the reference stays intact
            return result
        return dataclasses.replace(result, perm=_swap_first_two(result.perm))

    monkeypatch.setattr(repro, "extract_linear_forest", corrupt)
    report = smoke("extract-aniso2")
    assert report.attempted == report.failed == 2 and not report.correct


def test_serve_run_fails_a_changed_band_value_in_updates(monkeypatch):
    real = server.apply_edits

    def corrupt(*args, **kwargs):
        updated = real(*args, **kwargs)
        tri = updated.result.tridiagonal
        band = tri.d.copy()
        band[0] += 1.0
        result = dataclasses.replace(
            updated.result, tridiagonal=TridiagonalSystem(tri.dl, band, tri.du)
        )
        return dataclasses.replace(updated, result=result)

    monkeypatch.setattr(server, "apply_edits", corrupt)
    report = smoke("serve-mix")
    updates = [op for op in report.ops if op.kind == "update"]
    assert updates and not report.correct
    assert report.failed == len(updates) and not any(op.ok for op in updates)


def test_serve_run_fails_a_corrupted_payload(monkeypatch):
    real = ReproServer.handle_line

    def corrupt(self, line):
        response = json.loads(real(self, line))
        response["result"]["perm"] = _swap_first_two(response["result"]["perm"])
        return json.dumps(response)

    monkeypatch.setattr(ReproServer, "handle_line", corrupt)
    report = smoke("serve-mix")
    assert report.attempted == report.failed == 60 and not report.correct


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def test_cli_prints_a_table_and_the_result_line():
    child = _cli("--workload", "extract-aniso2", "--smoke", "--seconds", "0", "--seed", "3")
    assert child.returncode == 0, child.stderr
    lines = child.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    for name, (unit, _) in bench.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        row = next(line.split() for line in lines if line.startswith(name + " "))
        assert row[2] == unit and int(row[3]) >= 1  # value, unit, samples
    assert any(line.startswith("# calibration") for line in lines)


def test_cli_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    child = _cli("--workload", "extract-aniso2", "--smoke", "--seconds", "0", cwd=tmp_path)
    assert child.returncode != 0
    assert not any(line.startswith("{") for line in child.stdout.splitlines())


def test_hd_median_is_a_median_that_does_not_jump_across_a_gap():
    assert bench.hd_median([2.0] * 7) == pytest.approx(2.0)
    assert bench.hd_median([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0)
    assert bench.hd_median([]) is None
    # one op moved across the gap between two classes moves the sample
    # median by the whole gap, the estimate by a fraction of it
    low, high = [1.0] * 10 + [2.0] * 11, [1.0] * 11 + [2.0] * 10
    assert bench.hd_median(low) - bench.hd_median(high) < 0.5
