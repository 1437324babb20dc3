"""Parallel radix sort substrate (the CUB radix-sort stand-in).

Section 4.3 of the paper sorts vertex ids by a key composed of path id and
position, using CUB's radix sort, to obtain the permutation under which the
linear forest's adjacency matrix is tridiagonal.  This subpackage provides:

* :mod:`~repro.sort.keys` — packing/unpacking of (path id, position) into a
  single 64-bit key.
* :mod:`~repro.sort.radix` — a least-significant-digit radix sort with 8-bit
  digits: one stable counting pass (histogram, prefix sum, scatter) per
  digit, as in CUB.
"""

from .keys import pack_keys, unpack_keys
from .radix import radix_argsort, radix_sort

__all__ = ["pack_keys", "radix_argsort", "radix_sort", "unpack_keys"]
