"""The tridiagonalising permutation (Section 3.3 step 3 / Section 4.3).

Vertex ids are sorted by the composite key (path id, position) — the paper
uses CUB's radix sort; we use the 8-bit-digit LSD radix sort of :mod:`repro.sort`.
Under the resulting permutation, consecutive rows are consecutive vertices of
a path, so every linear-forest edge lands on the sub/superdiagonal of
``Q^T A Q``.
"""

from __future__ import annotations

import numpy as np

from .._validation import INDEX_DTYPE
from ..sort.keys import pack_keys
from ..sort.radix import radix_argsort
from .paths import PathInfo
from .structures import Factor

__all__ = ["forest_permutation", "inverse_permutation", "is_tridiagonal_under"]


def forest_permutation(info: PathInfo) -> np.ndarray:
    """Vertex ids sorted by (path id, position).

    Returns ``perm`` with ``perm[k]`` = the old id of the vertex at new
    position ``k``.
    """
    keys = pack_keys(info.path_id, info.position)
    return radix_argsort(keys)


def inverse_permutation(perm: np.ndarray) -> np.ndarray:
    """``new_index`` with ``new_index[old] = new``."""
    perm = np.asarray(perm, dtype=INDEX_DTYPE)
    new_index = np.empty_like(perm)
    new_index[perm] = np.arange(perm.size, dtype=INDEX_DTYPE)
    return new_index


def is_tridiagonal_under(factor: Factor, perm: np.ndarray) -> bool:
    """Does every factor edge land on the sub/superdiagonal under ``perm``?"""
    new_index = inverse_permutation(perm)
    u, v = factor.edges()
    if u.size == 0:
        return True
    return bool((np.abs(new_index[u] - new_index[v]) == 1).all())
