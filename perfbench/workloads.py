"""The benchmark's two workloads.

Each workload runs one caller in a closed loop: the next op starts when
the previous one returned.  An op's timed region is exactly one public
library call — ``repro.extract_linear_forest`` or ``ReproServer.handle_line``
— and everything else an op needs (edit
generation, request encoding, digests) happens outside it.  ``verify`` runs
after the timed loop and checks every op against an independent reference.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import repro
from repro.core import ParallelFactorConfig
from repro.delta import EditBatch, apply_edits_to_matrix
from repro.graphs import aniso2, build_matrix
from repro.serve import ReproServer, ServeConfig

from . import verify
from .traffic import SERVE_SPECS, ServeTraffic, clustered_edits, rng_for

clock = time.perf_counter


@dataclass
class Op:
    """One op's timing and the outputs its check and counts need."""

    seconds: float
    coverage: float
    ok: bool = True
    #: serve-mix only: "hit", "miss" or "update"
    kind: str = "op"
    traced: bool = False
    #: exact per-op counts, equal on every run with one seed
    counts: dict = field(default_factory=dict)
    #: what ``verify`` compares against its reference
    check: object = None


def timed(probe, call):
    """Run ``call()`` as one op's timed region; returns (output, seconds).

    ``call`` resolves the library function inside the region, so a traced
    op reaches the wrappers ``probe.op()`` installs.
    """
    if probe is None:
        start = clock()
        out = call()
        return out, clock() - start
    with probe.op() as span:
        out = call()
    return out, span.seconds


def _build(probe, fn, *args):
    """A matrix build in set-up, traced as ``graphs.build`` when tracing."""
    if probe is None:
        return fn(*args)
    with probe.span("graphs.build"):
        return fn(*args)


def _device(probe) -> dict:
    return {} if probe is None else {"device": probe.new_device()}


class Extract:
    """One cold ``extract_linear_forest`` per op on a fixed matrix."""

    round_size = 1

    def __init__(self, build, *args):
        self._build_args = (build, *args)

    def setup(self, probe=None) -> None:
        self.a = _build(probe, *self._build_args)
        repro.extract_linear_forest(self.a)  # warm-up

    def size(self) -> dict:
        return {"n": self.a.n_rows, "nnz": self.a.nnz}

    def run_op(self, index: int, probe=None) -> Op:
        kwargs = _device(probe)
        result, seconds = timed(probe, lambda: repro.extract_linear_forest(self.a, **kwargs))
        coverage = float(result.coverage)
        return Op(
            seconds, coverage, counts={"coverage": coverage},
            check=verify.result_digest(result),
        )

    def verify(self, ops: list[Op]) -> list[bool]:
        # the sharded engine runs its own proposer, scan and band
        # extraction; structure_ok re-derives the sort with NumPy
        reference = repro.extract_linear_forest(self.a, devices=2)
        good = verify.structure_ok(self.a, reference)
        digest = verify.result_digest(reference)
        return [good and op.check == digest for op in ops]


class ServeMix:
    """One client sending the seeded :class:`ServeTraffic` to a fresh server."""

    def __init__(self, scale: float, seed: int):
        self.scale = scale
        self.seed = seed

    def setup(self, probe=None) -> None:
        self.bases = {
            name: _build(probe, build_matrix, name, self.scale) for name in SERVE_SPECS
        }
        self.traffic = ServeTraffic(self.bases, self.scale, self.seed)
        self.round_size = self.traffic.round_size
        self.server = ReproServer(ServeConfig())

    def size(self) -> dict:
        return {
            "n": sum(a.n_rows for a in self.bases.values()),
            "nnz": sum(a.nnz for a in self.bases.values()),
        }

    def run_op(self, index: int, probe=None) -> Op:
        request, signature = self.traffic.request(index)
        line = json.dumps(request)
        response_line, seconds = timed(probe, lambda: self.server.handle_line(line))
        response = json.loads(response_line)
        ok = response.get("ok") is True
        result = response.get("result") or {}
        cached = bool(response.get("cached"))
        if request["op"] == "update":
            kind = "update"
        else:
            kind = "hit" if cached else "miss"
        report = response.get("report")
        delta = response.get("delta") or {}
        coverage = float(result.get("coverage", "nan"))
        return Op(
            seconds,
            coverage,
            ok=ok,
            kind=kind,
            counts={
                "coverage": coverage,
                "cached": cached,
                "warm": bool(delta.get("warm")),
                # the timing report is the only part of a response that
                # differs between runs
                "response_bytes": len(response_line)
                - (len(json.dumps(report)) if report is not None else 0),
            },
            check=(signature, verify.payload_digest(result) if ok else None),
        )

    def _reference(self, signature) -> tuple[str, float]:
        op, name, charge_seed = signature
        a = self.bases[name]
        if op == "update":
            edits = EditBatch.from_dicts(self.traffic.edits[name, charge_seed])
            a = apply_edits_to_matrix(a, edits)
        result = repro.extract_linear_forest(a, ParallelFactorConfig(n=2, seed=charge_seed))
        return verify.result_digest(result), float(result.coverage)

    def verify(self, ops: list[Op]) -> list[bool]:
        """Every payload equals the direct library result (so a hit equals its miss)."""
        references: dict = {}
        out = []
        for op in ops:
            signature, digest = op.check
            if signature not in references:
                references[signature] = self._reference(signature)
            out.append(op.ok and (digest, op.coverage) == references[signature])
        return out


#: name -> (why, full-size factory, smoke-size factory); factories take the seed
WORKLOADS = {
    "extract-aniso2": (
        "aniso2(384), n=147456, nnz=1322500: 278 long paths and 95 cycles, so "
        "the scans and the cycle re-scan dominate; a scan, sort or compaction change shows here",
        lambda seed: Extract(aniso2, 384),
        lambda seed: Extract(aniso2, 48),
    ),
    "serve-mix": (
        "one client, fresh ReproServer; 6 suite specs at scale 2 (n=16384-32768, "
        "nnz=81408-440498); 80% extracts, mostly hits; 20% clustered updates, which run the delta engine",
        lambda seed: ServeMix(2.0, seed),
        lambda seed: ServeMix(0.5, seed),
    ),
}


def make(name: str, seed: int, smoke: bool = False):
    _, full, small = WORKLOADS[name]
    return (small if smoke else full)(seed)

