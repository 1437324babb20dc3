"""Least-significant-digit radix sort with 8-bit digits.

The GPU building block (CUB's onesweep radix sort) is a stable counting pass
over one multi-bit digit: a histogram of the digit values, a prefix sum over
the buckets, and a stable scatter to each element's bucket position.  The
full sort runs one such pass per 8-bit digit, low to high — stability of
each pass makes the composite sort correct.  Here each pass is a stable
``np.argsort`` of the digit (NumPy's stable sort of a one-byte key is itself
a counting sort).

Only unsigned integer keys are supported (the linear-forest permutation packs
its key into uint64, see :mod:`repro.sort.keys`); digits above the highest
set bit of the input are skipped.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError

__all__ = ["radix_argsort", "radix_sort"]

#: Bits per radix digit (one counting pass each).
DIGIT_BITS = 8


def radix_argsort(keys: np.ndarray) -> np.ndarray:
    """Return the stable ascending permutation of unsigned integer ``keys``."""
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ShapeError("keys must be one-dimensional")
    if keys.dtype.kind != "u":
        if keys.dtype.kind == "i":
            if keys.size and int(keys.min()) < 0:
                raise ShapeError("signed keys must be non-negative")
            keys = keys.astype(np.uint64)
        else:
            raise ShapeError(f"unsupported key dtype {keys.dtype}")
    else:
        keys = keys.astype(np.uint64)
    order = np.arange(keys.size, dtype=np.int64)
    if keys.size == 0:
        return order
    n_bits = max(1, int(keys.max()).bit_length())
    mask = np.uint64((1 << DIGIT_BITS) - 1)
    for shift in range(0, n_bits, DIGIT_BITS):
        digit = ((keys.take(order) >> np.uint64(shift)) & mask).astype(np.uint8)
        order = order.take(np.argsort(digit, kind="stable"))
    return order


def radix_sort(
    keys: np.ndarray, values: np.ndarray | None = None
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Sort ``keys`` ascending (optionally permuting ``values`` alongside)."""
    order = radix_argsort(keys)
    sorted_keys = np.asarray(keys)[order]
    if values is None:
        return sorted_keys
    values = np.asarray(values)
    if values.shape[0] != order.size:
        raise ShapeError("values must have the same leading dimension as keys")
    return sorted_keys, values[order]
