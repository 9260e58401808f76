"""Index-row coalescing against a dict-sum oracle."""

import numpy as np
import pytest

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


@pytest.mark.parametrize("pad", [0, 300], ids=["lexsort", "packed"])
def test_coalesce_run_sum_order(pad):
    # a run of equal float rows is its first value plus the sum of the rest:
    # 1 + (1e16 - 1e16) = 1, where left to right (1 + 1e16) - 1e16 = 0
    run = np.array([1.0, 1e16, -1e16])
    assert (run[0] + run[1]) + run[2] != run[0] + (run[1] + run[2])
    tuples = np.concatenate([np.zeros((3, 2), dtype=np.int64),
                             np.arange(1, 2 * pad + 1).reshape(pad, 2)])
    values = np.concatenate([run, np.ones(pad)])
    t, v = _accel.coalesce(tuples, values)
    assert tuple(t[0]) == (0, 0) and v[0] == run[0] + (run[1] + run[2]) == 1.0
    assert len(v) == pad + 1


def test_coalesce_empty():
    t, v = _accel.coalesce(np.empty((0, 3), dtype=np.int64),
                           np.empty(0, dtype=np.complex128))
    assert len(v) == 0


def _lexsort_coalesce(tuples, values):
    # reference: np.lexsort of the columns, equal rows found column by column
    order = np.lexsort(tuples.T[::-1])
    t, v = tuples[order], values[order]
    newrow = np.ones(len(v), dtype=bool)
    newrow[1:] = np.any(t[1:] != t[:-1], axis=1)
    starts = np.flatnonzero(newrow)
    summed = np.add.reduceat(v, starts)
    keep = summed != 0
    return t[starts][keep], summed[keep]


def _coalesce_cases():
    # (rows, whether the tagged key fits: span^m * 2^tag < 2^63 with
    # tag = bit width of S - 1); packs is None for empty rows
    rng = np.random.default_rng(9)
    big = np.iinfo(np.int64)
    small = np.iinfo(np.int32)
    for m in (1, 2, 3, 4):
        yield f"empty-{m}", np.empty((0, m), dtype=np.int64), None
        yield f"single-{m}", rng.integers(0, 9, size=(1, m)), True
        yield f"short-{m}", rng.integers(0, 4, size=(20, m)), True
        yield f"small-span-{m}", rng.integers(0, 6, size=(300, m)), True
        yield f"negative-{m}", rng.integers(-40, 40, size=(2000, m)), True
        yield f"duplicates-{m}", np.tile(rng.integers(0, 9, size=(1, m)), (500, 1)), True
        yield f"full-range-{m}", rng.integers(big.min, big.max, size=(400, m),
                                               endpoint=True), False
        # path rows arrive as int32; the key is built in int64 (the entries'
        # differences overflow int32 on the full range)
        yield f"int32-{m}", rng.integers(-50, 50, size=(3000, m)).astype(np.int32), True
        t = rng.integers(small.min, small.max, size=(3000, m), endpoint=True)
        t[0], t[1] = small.min, small.max
        yield f"int32-full-range-{m}", t.astype(np.int32), m == 1
    # around PACK_MIN_ROWS = 256 and across a power of two (tag 10 -> 11)
    for n in (255, 256, 257, 1025):
        yield f"rows-{n}", rng.integers(0, 30, size=(n, 2)), True
    # 1000 rows, tag 10: span^4 * 2^10 on either side of 2^63, i.e. span^4
    # on either side of 2^53: 9741^4 < 2^53 <= 9742^4
    for hi, packs in ((9740, True), (9741, False)):
        t = rng.integers(0, hi + 1, size=(1000, 4))
        t[0], t[1] = 0, hi
        yield f"span-{hi + 1}", t, packs


@pytest.mark.parametrize("tuples, packs", [pytest.param(t, p, id=name)
                                           for name, t, p in _coalesce_cases()])
def test_coalesce_matches_lexsort_reference(tuples, packs):
    # the tagged-key sort (distinct keys, ties broken by row index) and
    # np.lexsort give the same stable order: same rows, and each row's values
    # summed in the same order, so equal bit for bit
    rng = np.random.default_rng(len(tuples))
    values = rng.normal(size=len(tuples)) + 1j * rng.normal(size=len(tuples))
    if packs is not None:
        assert (_accel._tagged_order(tuples) is not None) == packs
    t, v = _accel.coalesce(tuples, values)
    t_ref, v_ref = _lexsort_coalesce(tuples, values)
    assert t.dtype == t_ref.dtype and np.array_equal(t, t_ref)
    assert v.tobytes() == v_ref.tobytes()
