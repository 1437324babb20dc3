"""Digests and structural checks the benchmark verifies every op with.

An op's output is reduced to one digest over the arrays a caller consumes:
``perm``, the per-vertex ``path_id`` and ``position``, and the three bands.
Two outputs are equal exactly when their digests are equal, so the timed
output can be compared with a reference computed once, outside the timed
region.
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy.sparse as sp

INT = np.int64


def digest_arrays(*arrays: np.ndarray) -> str:
    """BLAKE2b over each array's dtype, shape and bytes."""
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def forest_digest(perm, path_id, position, dl, d, du) -> str:
    ints = [np.asarray(x, dtype=INT) for x in (perm, path_id, position)]
    return digest_arrays(*ints, dl, d, du)


def result_digest(result) -> str:
    """Digest of a :class:`~repro.core.pipeline.LinearForestResult`."""
    tri = result.tridiagonal
    return forest_digest(
        result.perm, result.paths.path_id, result.paths.position, tri.dl, tri.d, tri.du
    )


def payload_digest(payload: dict) -> str:
    """Digest of a serve ``extract``/``update`` result payload.

    JSON numbers round-trip float32 and float64 exactly, so a payload equal
    to the library result has the same digest as :func:`result_digest`.
    """
    dtype = np.dtype(payload["value_dtype"])
    bands = payload["bands"]
    return forest_digest(
        payload["perm"],
        payload["path_id"],
        payload["position"],
        *(np.asarray(bands[k], dtype=dtype) for k in ("dl", "d", "du")),
    )


def matrix_digest(a) -> str:
    """Digest of a CSR matrix in canonical form (sorted column indices)."""
    m = sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
    m.sort_indices()
    return digest_arrays(m.indptr.astype(INT), m.indices.astype(INT), m.data)


def structure_ok(a, result) -> bool:
    """Checks that do not share code with the library's sort or extraction.

    ``perm`` must be the permutation that orders vertices by (path id,
    position) — recomputed here with NumPy's own stable sort — and the main
    band must be the matrix diagonal under ``perm``.
    """
    perm = np.asarray(result.perm, dtype=INT)
    n = a.n_rows
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        return False
    order = np.lexsort((result.paths.position, result.paths.path_id))
    if not np.array_equal(order, perm):
        return False
    return bool(np.array_equal(result.tridiagonal.d, a.diagonal()[perm]))
