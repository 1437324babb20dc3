"""Wall-clock benchmark of the linear-forest library — the one command.

Run from the repository root::

    python3 perfbench/run.py                      # both workloads
    python3 perfbench/run.py --workload extract-aniso2 --seed 1 --seconds 30
    python3 perfbench/run.py --workload serve-mix --trace 1   # per-layer run

One workload runs in this process; without ``--workload`` (or with
``all``) each workload runs in a fresh child process.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run.  Human-readable lines (machine, calibration, sizes,
every metric with its unit and sample count) come first; the last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every op was verified correct.

``--smoke`` shrinks every workload to a tiny size for the benchmark's own
tests; with ``--seconds 0`` a run measures its minimum of whole rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("extract-aniso2", "serve-mix")

#: Library environment switches that would change what runs; the benchmark
#: measures the default configuration.
_LIBRARY_ENV = ("REPRO_DEVICES", "REPRO_COMPACTION", "REPRO_TUNING_CACHE", "REPRO_SUITESPARSE_DIR")
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _prepare_environment() -> None:
    """Cap BLAS/OpenMP pools at nproc; must run before NumPy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in _THREAD_ENV:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    for var in _LIBRARY_ENV:
        os.environ.pop(var, None)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=("all", *NAMES))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    return p.parse_args(argv)


def _format(report) -> list[str]:
    lines = [f"# workload {report.workload}"]
    lines += [f"# {line}" for line in report.info]
    lines.append(f"{'metric':<30} {'value':>16} {'unit':<6} samples")
    for name, (value, unit, samples) in report.metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"{name:<30} {shown:>16} {unit:<6} {samples}")
    return lines


def _run_one(args) -> int:
    from perfbench import bench

    report = bench.run(
        args.workload, args.seed, args.seconds,
        trace=bool(args.trace), smoke=args.smoke, root=ROOT,
    )
    if args.trace:
        from perfbench.layers import PER_LAYER

        for name, (_, _, moves) in PER_LAYER.items():
            report.info.append(f"moves {name}: {moves}")
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.jsonl"
        report.tracer.write_jsonl(path)
        report.info.append(f"spans {len(report.tracer.spans)} written to {path.relative_to(ROOT)}")
    print("\n".join(_format(report)))
    print(json.dumps(report.result_json()), flush=True)
    return 0 if report.correct else 1


def _run_all(args) -> int:
    """Each workload in a fresh child process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        child = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# {name}: no result (exit {child.returncode})", file=sys.stderr)
            return 1
        combined["correct"] &= result["correct"] and child.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    _prepare_environment()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
