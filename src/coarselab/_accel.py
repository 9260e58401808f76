"""Index-row coalescing, the numeric kernel shared by chains and the character.

Tuple-indexed chains are (S, m) int64 index arrays plus a value column; the
character map and the boundary both produce such arrays with repeated rows
and sum them here.  The path-product join of the character map itself lives
in ``cyclic._paths``.

Rows are put in order by one stable argsort of a packed int64 key, each row
read as a number in base (span of its entries); that is the lexicographic
order, found in one pass instead of m.  Where the key would not fit in 63
bits, or on inputs so short that building it costs more than it saves,
``np.lexsort`` of the columns gives the same stable order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["coalesce"]

PACK_MIN_ROWS = 256     # below this many rows np.lexsort is as fast or faster


def _packed_key(tuples: np.ndarray):
    """One int64 per row, ordered as the rows are lexicographically, or None
    when (max - min + 1)^m does not fit in 63 bits."""
    lo, hi = int(tuples.min()), int(tuples.max())
    base, m = hi - lo + 1, tuples.shape[1]
    if base ** m >= 1 << 63:
        return None
    digits = np.subtract(tuples, lo, dtype=np.int64)
    return digits @ base ** np.arange(m - 1, -1, -1, dtype=np.int64)


def coalesce(tuples: np.ndarray, values: np.ndarray):
    """Sum values of duplicate index rows; rows come back lex-sorted, zeros dropped.

    Both sorts are stable, so equal rows are summed in input order whichever
    one runs."""
    if len(values) == 0:
        return tuples, values
    key = _packed_key(tuples) if len(values) >= PACK_MIN_ROWS else None
    if key is None:
        order = np.lexsort(tuples.T[::-1])
        t = tuples[order]
        changed = np.any(t[1:] != t[:-1], axis=1)
    else:
        order = np.argsort(key, kind="stable")
        t = tuples[order]
        k = key[order]
        changed = k[1:] != k[:-1]
    v = values[order]
    starts = np.flatnonzero(np.concatenate(([True], changed)))
    summed = np.add.reduceat(v, starts)
    keep = summed != 0
    return t[starts][keep], summed[keep]
