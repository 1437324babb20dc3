"""Unit tests for the 8-bit-digit LSD radix sort."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sort import radix_argsort, radix_sort


def test_empty():
    assert radix_argsort(np.array([], dtype=np.uint64)).size == 0


def test_single_element():
    np.testing.assert_array_equal(radix_argsort(np.array([42], dtype=np.uint64)), [0])


def test_sorted_input():
    keys = np.arange(10, dtype=np.uint64)
    np.testing.assert_array_equal(radix_argsort(keys), np.arange(10))


def test_reverse_input():
    keys = np.arange(10, dtype=np.uint64)[::-1].copy()
    np.testing.assert_array_equal(radix_argsort(keys), np.arange(10)[::-1])


def test_matches_numpy_argsort(rng):
    keys = rng.integers(0, 2**40, 1000).astype(np.uint64)
    order = radix_argsort(keys)
    np.testing.assert_array_equal(keys[order], np.sort(keys))


def test_stability_on_duplicates(rng):
    keys = rng.integers(0, 8, 500).astype(np.uint64)
    order = radix_argsort(keys)
    ref = np.argsort(keys, kind="stable")
    np.testing.assert_array_equal(order, ref)


def test_all_equal_keys():
    keys = np.full(17, 7, dtype=np.uint64)
    np.testing.assert_array_equal(radix_argsort(keys), np.arange(17))


def test_zero_keys():
    keys = np.zeros(5, dtype=np.uint64)
    np.testing.assert_array_equal(radix_argsort(keys), np.arange(5))


def test_max_uint64_keys():
    keys = np.array([2**64 - 1, 0, 2**63], dtype=np.uint64)
    order = radix_argsort(keys)
    np.testing.assert_array_equal(order, [1, 2, 0])


def test_signed_nonnegative_accepted():
    keys = np.array([3, 1, 2], dtype=np.int64)
    np.testing.assert_array_equal(radix_argsort(keys), [1, 2, 0])


def test_signed_negative_rejected():
    with pytest.raises(ShapeError):
        radix_argsort(np.array([-1, 2], dtype=np.int64))


def test_float_rejected():
    with pytest.raises(ShapeError):
        radix_argsort(np.array([1.5, 2.5]))


def test_2d_rejected():
    with pytest.raises(ShapeError):
        radix_argsort(np.zeros((2, 2), dtype=np.uint64))


def test_radix_sort_with_values(rng):
    keys = rng.integers(0, 100, 50).astype(np.uint64)
    values = rng.standard_normal(50)
    sk, sv = radix_sort(keys, values)
    order = np.argsort(keys, kind="stable")
    np.testing.assert_array_equal(sk, keys[order])
    np.testing.assert_array_equal(sv, values[order])


def test_radix_sort_value_shape_mismatch():
    with pytest.raises(ShapeError):
        radix_sort(np.array([1, 2], dtype=np.uint64), np.ones(3))


def test_stability_across_every_digit(rng):
    # few distinct values per byte, spread over all eight digits, so every
    # pass sees ties that only the earlier (lower-digit) passes order
    digits = rng.integers(0, 3, (400, 8)).astype(np.uint64)
    keys = (digits << (np.arange(8, dtype=np.uint64) * np.uint64(8))).sum(
        axis=1, dtype=np.uint64
    )
    np.testing.assert_array_equal(radix_argsort(keys), np.argsort(keys, kind="stable"))
