"""Seeded inputs: clustered edit batches and the serve request sequence.

Everything here is a pure function of the workload seed (and, for edit
batches, of the matrix being edited), so two runs with one seed send the
library identical inputs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.delta import EditBatch

#: Suite matrices of the serve mix: 16,384 vertices at scale 2, except
#: atmosmodl and stocf_1465 with 32,768.
SERVE_SPECS = ("aniso2", "g3_circuit", "thermal2", "ecology1", "atmosmodl", "stocf_1465")

#: The serve specs that also receive updates: a stencil, an irregular
#: graph and one of the larger matrices.
UPDATE_SPECS = ("aniso2", "g3_circuit", "atmosmodl")

def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _neighbors(a, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) of every stored entry in the rows ``verts``."""
    starts = a.indptr[verts]
    lengths = a.indptr[verts + 1] - starts
    offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return np.repeat(verts, lengths), a.indices[offsets + np.arange(lengths.sum())]


def bfs_cluster(a, center: int, size: int) -> np.ndarray:
    """The first ``size`` vertices a breadth-first search from ``center`` reaches."""
    seen = np.zeros(a.n_rows, dtype=bool)
    seen[center] = True
    frontier = np.array([center], dtype=np.int64)
    levels = [frontier]
    count = 1
    while count < size and frontier.size:
        _, cols = _neighbors(a, frontier)
        frontier = np.unique(cols[~seen[cols]])
        seen[frontier] = True
        levels.append(frontier)
        count += frontier.size
    return np.concatenate(levels)[:size]


def clustered_edits(a, n_edits: int, rng: np.random.Generator) -> EditBatch:
    """``n_edits`` edits inside one BFS ball of ``1.1 * n_edits`` vertices.

    A quarter deletes existing edges of the ball; of the rest, half
    reweight existing edges and half insert edges between vertices two hops
    apart.  On the 9-point aniso2 grid the ball is a square window (40 x 40
    for a 1% batch at grid side 384).  Pairs are distinct, so no edit
    overrides another.
    """
    cluster = bfs_cluster(a, int(rng.integers(a.n_rows)), n_edits * 11 // 10)
    k = cluster.size
    local = np.full(a.n_rows, -1, dtype=np.int64)
    local[cluster] = np.arange(k)
    rows, cols = _neighbors(a, cluster)
    keep = (local[cols] >= 0) & (rows != cols)
    li, lj = local[rows[keep]], local[cols[keep]]
    adj = sp.csr_matrix((np.ones(li.size), (li, lj)), shape=(k, k))
    adj = ((adj + adj.T) > 0).astype(np.float64)
    eu, ev = sp.triu(adj, 1).nonzero()
    existing = eu * k + ev
    cu, cv = sp.triu(adj @ adj, 1).nonzero()
    candidates = cu * k + cv
    candidates = candidates[~np.isin(candidates, existing)]

    n_del = n_edits // 4
    n_ins = (n_edits - n_del) // 2
    n_rew = n_edits - n_del - n_ins
    existing = existing[rng.permutation(existing.size)]
    deletes = existing[:n_del]
    reweights = existing[n_del : n_del + n_rew]
    inserts = candidates[rng.permutation(candidates.size)[:n_ins]]
    pairs = np.concatenate([deletes, reweights, inserts])
    delete = np.arange(pairs.size) < deletes.size
    w = np.where(delete, 0.0, -rng.uniform(0.05, 1.5, size=pairs.size))
    return EditBatch(
        u=cluster[pairs // k], v=cluster[pairs % k], w=w, delete=delete
    )


class ServeTraffic:
    """The seeded request sequence of the serve mix, in rounds of 30.

    Every round asks for new results, so each round sees the same cache
    outcomes and the mix does not drift with the number of rounds a run
    completes.  Round ``r`` uses the charge seed ``r + 1`` and holds one
    block of requests per base spec, in spec order:

    * 4 extracts — the first a miss, the other 3 hits;
    * for the specs in :data:`UPDATE_SPECS`, an update carrying a fresh
      clustered 1% edit batch, sent twice: the first copy a miss that runs
      warm from the block's extract, the second a hit.

    That is 24 extracts and 6 updates per round (80% / 20%), 21 of the 30
    requests hits; a round takes 8-10 s on a 2-core Xeon.  The fixed block
    order makes the cache hold the same entries whenever a given request
    runs, so the process's peak memory repeats too.  The seed picks the edit
    batches and the order inside each block after its first extract.
    """

    def __init__(self, bases: dict, scale: float, seed: int):
        self.bases = bases
        self.scale = scale
        self.seed = seed
        self.round_size = 4 * len(bases) + 2 * len(UPDATE_SPECS)
        #: (spec, charge seed) -> the edit batch of that update, as JSON
        self.edits: dict[tuple, list] = {}
        self._rounds: list[list] = []

    def request(self, index: int) -> tuple[dict, tuple]:
        """Request ``index`` and its signature ``(op, spec, charge seed)``.

        The signature names what the request asks for, independently of
        the cache key the server computes.
        """
        r, j = divmod(index, self.round_size)
        while len(self._rounds) <= r:
            r_new = len(self._rounds)
            rng = rng_for(self.seed, 1, r_new)
            self._rounds.append(
                [req for name in self.bases for req in self._block(name, r_new + 1, rng)]
            )
        request, signature = self._rounds[r][j]
        return dict(request, id=index), signature

    def _block(self, name: str, charge_seed: int, rng) -> list:
        base = {
            "matrix": {"kind": "suite", "name": name, "scale": self.scale},
            "config": {"seed": charge_seed},
        }
        extract = (dict(base, op="extract"), ("extract", name, charge_seed))
        rest = [extract] * 3
        if name in UPDATE_SPECS:
            a = self.bases[name]
            edits = clustered_edits(a, max(4, a.n_rows // 100), rng).to_dicts()
            self.edits[name, charge_seed] = edits
            rest += [(dict(base, op="update", edits=edits), ("update", name, charge_seed))] * 2
        return [extract] + [rest[k] for k in rng.permutation(len(rest))]
