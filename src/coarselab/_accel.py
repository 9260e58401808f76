"""Index-row coalescing, the numeric kernel shared by chains and the character.

Tuple-indexed chains are (S, m) integer index arrays plus a value column; the
character map and the boundary both produce such arrays with repeated rows
and sum them here.  The path-product join of the character map itself lives
in ``cyclic._paths``.

Rows are put in order by one ``np.sort`` of tagged int64 keys: each row is
read as a number in base (span of its entries), which orders the rows
lexicographically, shifted left by tag = bit width of S - 1 and or-ed with
the row's index.  The tagged keys are distinct, so any sort gives the one
order in which equal rows keep their input order, and a mask reads the row
indices off it.  Where the tagged key would not fit in 63 bits, or on inputs
so short that building it costs more than it saves, ``np.lexsort`` of the
columns gives the same stable order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["coalesce"]

PACK_MIN_ROWS = 256     # below this many rows np.lexsort is as fast or faster


def _tagged_order(tuples: np.ndarray):
    """The stable lexicographic order of the rows and each sorted row's
    packed key, or None when span^m * 2^tag does not fit in 63 bits."""
    S, m = tuples.shape
    lo, hi = int(tuples.min()), int(tuples.max())
    base, tag = hi - lo + 1, (S - 1).bit_length()
    if base ** m << tag >= 1 << 63:
        return None
    key = np.subtract(tuples[:, 0], lo, dtype=np.int64)  # int64 for int32 rows too
    for j in range(1, m):
        key *= base
        key += np.subtract(tuples[:, j], lo, dtype=np.int64)
    tagged = np.sort(key << tag | np.arange(S))
    return tagged & ((1 << tag) - 1), tagged >> tag


def coalesce(tuples: np.ndarray, values: np.ndarray):
    """Sum values of duplicate index rows; rows come back lex-sorted, zeros dropped.

    Both orders are stable, so each run of equal rows keeps its input order
    whichever one runs.  np.add.reduceat adds the run's first value to
    numpy's sum of the rest (left to right below 8 terms, pairwise beyond):
    for floats that can differ from a left-to-right sum of the run."""
    if len(values) == 0:
        return tuples, values
    tagged = _tagged_order(tuples) if len(values) >= PACK_MIN_ROWS else None
    if tagged is None:
        order = np.lexsort(tuples.T[::-1])
        t = np.take(tuples, order, axis=0)
        changed = np.any(t[1:] != t[:-1], axis=1)
    else:
        order, key = tagged
        changed = key[1:] != key[:-1]
    starts = np.flatnonzero(np.concatenate(([True], changed)))
    summed = np.add.reduceat(values[order], starts)
    keep = summed != 0
    # np.take, not fancy indexing: several times faster on narrow rows
    return np.take(tuples, order[starts[keep]], axis=0), summed[keep]
