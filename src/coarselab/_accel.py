"""Index-row coalescing, the numeric kernel shared by chains and the character.

Tuple-indexed chains are (S, m) int64 index arrays plus a value column; the
character map and the boundary both produce such arrays with repeated rows
and sum them here.  The path-product join of the character map itself lives
in ``cyclic._paths``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["coalesce"]


def coalesce(tuples: np.ndarray, values: np.ndarray):
    """Sum values of duplicate index rows; rows come back lex-sorted, zeros dropped."""
    if len(values) == 0:
        return tuples, values
    order = np.lexsort(tuples.T[::-1])
    t = tuples[order]
    v = values[order]
    newrow = np.empty(len(v), dtype=bool)
    newrow[0] = True
    newrow[1:] = np.any(t[1:] != t[:-1], axis=1)
    starts = np.flatnonzero(newrow)
    summed = np.add.reduceat(v, starts)
    keep = summed != 0
    return t[starts][keep], summed[keep]
