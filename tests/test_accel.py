"""Index-row coalescing against a dict-sum oracle."""

import numpy as np

from coarselab import _accel


def test_coalesce_paths_agree():
    # the vectorized coalesce and a plain dict sum give the same rows
    rng = np.random.default_rng(0)
    tuples = rng.integers(0, 12, size=(500, 3))
    values = (rng.integers(-3, 4, size=500)).astype(np.complex128)
    t, v = _accel.coalesce(tuples.copy(), values.copy())
    oracle = {}
    for row, val in zip(map(tuple, tuples), values):
        oracle[row] = oracle.get(row, 0) + val
    expected = sorted((row, val) for row, val in oracle.items() if val != 0)
    assert [tuple(row) for row in t] == [row for row, _ in expected]
    assert np.array_equal(v, np.array([val for _, val in expected]))


def test_coalesce_cancellation():
    tuples = np.array([[1, 2], [1, 2], [0, 5]], dtype=np.int64)
    values = np.array([3.0, -3.0, 2.0], dtype=np.complex128)
    t, v = _accel.coalesce(tuples, values)
    assert t.shape == (1, 2) and tuple(t[0]) == (0, 5) and v[0] == 2.0


def test_coalesce_empty():
    t, v = _accel.coalesce(np.empty((0, 3), dtype=np.int64),
                           np.empty(0, dtype=np.complex128))
    assert len(v) == 0
