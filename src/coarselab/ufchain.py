"""Uniformly finite chains on a window: boundary, decay norms, shells.

A chain of degree q is a finitely supported map from (q+1)-tuples of window
points to coefficients.  A UfChain holds it as two read-only arrays: `tuples`,
(S, q+1) int64 point ids in lexicographic row order without repeats, and
`values`, the S nonzero coefficients: ints or Fractions (exact) or complex
floats.  Ints are int64 until a sum or product could reach 2^63, Python ints
from then on (``exact_column`` decides), so exact coefficients cancel exactly.
Python terms (a dict or (tuple, value) pairs) are summed in Python in input
order; arrays go through ``coalesce`` (``from_arrays``), which adds a run of
equal rows as its first value plus numpy's sum of the rest, and so does every
operation.  ``sort_sign`` serves the character map and the filler alike, and
``faces`` the boundary and the character's chain-map check.

Tuple length is the max pairwise distance of the tuple's points; it is the
shell coordinate used by shell_norm (the product-metric distance to the
diagonal differs from it only by a convention-dependent constant, and this
artifact standardizes on tuple length).
"""

from __future__ import annotations

import json
from types import MappingProxyType

import numpy as np

from ._accel import coalesce
from .errors import DegreeError, PointNotInWindowError, PreconditionError
from .spaces import Window

_INT64_LIMIT = 2 ** 63


def exact_column(values, factor: int = 1) -> np.ndarray:
    """Coefficients (a list or an array) as an array on which `factor` times
    the largest entry, or a sum of `factor` entries, is exact: int columns
    are int64 while that stays below 2^63 and Python ints (object) beyond,
    where numpy would wrap or turn [-1, 2**63] into float64."""
    if isinstance(values, list):
        if not all(isinstance(v, int) for v in values):
            return np.array(values)
        largest = max([1, *map(abs, values)])
    else:
        values = np.asarray(values)
        if values.dtype.kind not in "iu":
            return values
        largest = max(int(values.max(initial=1)), -int(values.min(initial=0)))
    return np.asarray(values, dtype=np.int64 if largest * factor < _INT64_LIMIT else object)


def _magnitudes(values: np.ndarray) -> np.ndarray:
    # hypot rounds as Python's abs(complex) does; np.abs differs in the last bit
    if values.dtype.kind == "c":
        return np.hypot(values.real, values.imag)
    return np.abs(values)


def _sup(values: np.ndarray) -> float:
    return float(_magnitudes(values).max(initial=0.0))


def _check_rows(window: Window, degree: int, tuples: np.ndarray):
    if tuples.shape[1] != degree + 1:
        raise DegreeError(f"ufchain: tuples have arity {tuples.shape[1]}, "
                          f"degree {degree} needs {degree + 1}")
    outside = (tuples < 0) | (tuples >= window.n_points)
    if outside.any():
        raise PointNotInWindowError(
            f"ufchain: point id {int(tuples[outside][0])} not in window")
    return tuples


class UfChain:
    """Finitely supported degree-q chain; value-semantic and immutable."""

    __slots__ = ("window", "degree", "tuples", "values", "_support", "_propagation")

    def __init__(self, window: Window, degree: int, terms=None):
        if degree < 0:
            raise DegreeError("ufchain: degree must be >= 0")
        self.window = window
        self.degree = int(degree)
        acc: dict[tuple, object] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for tup, val in items:
                key = tuple(int(p) for p in tup)
                acc[key] = acc[key] + val if key in acc else val
        for key in acc:
            if len(key) != degree + 1:
                raise DegreeError(
                    f"ufchain: tuple {key} has arity {len(key)}, "
                    f"degree {degree} needs {degree + 1}")
        _check_rows(window, degree,
                    np.array(list(acc), dtype=np.int64).reshape(-1, degree + 1))
        self._assign(*summed_arrays(degree, acc))

    def _assign(self, tuples: np.ndarray, values: np.ndarray):
        """Take coalesced arrays: lex-sorted rows without repeats, no zeros."""
        self.tuples, self.values = tuples.view(), values.view()
        self.tuples.flags.writeable = self.values.flags.writeable = False
        self._support = self._propagation = None
        return self

    @classmethod
    def from_arrays(cls, window: Window, degree: int, tuples, values) -> "UfChain":
        """The chain sum_r values[r] * tuples[r]: repeated rows are summed by
        coalesce (the first value plus numpy's sum of the rest), zeros
        dropped."""
        tuples = _check_rows(window, degree, np.asarray(tuples, dtype=np.int64))
        values = exact_column(values, len(values))
        return _coalesced(window, degree, *coalesce(tuples, values))

    # -- basic structure ---------------------------------------------------

    def __len__(self):
        return len(self.values)

    @property
    def support(self):
        """Read-only tuple -> coefficient mapping, built on first use."""
        if self._support is None:
            self._support = MappingProxyType(dict(zip(
                map(tuple, self.tuples.tolist()), self.values.tolist())))
        return self._support

    def terms(self):
        return self.support.items()

    def arrays(self):
        return self.tuples, self.values

    @property
    def propagation(self):
        if self._propagation is None:
            self._propagation = int(
                self.window.tuple_lengths(self.tuples).max(initial=0))
        return self._propagation

    def __add__(self, other: "UfChain") -> "UfChain":
        if other.degree != self.degree or other.window is not self.window:
            raise DegreeError("ufchain: chain addition needs matching window/degree")
        return UfChain.from_arrays(self.window, self.degree,
                                   np.concatenate([self.tuples, other.tuples]),
                                   np.concatenate([self.values, other.values]))

    def __sub__(self, other: "UfChain") -> "UfChain":
        return self + other.scale(-1)

    def scale(self, z) -> "UfChain":
        z = int(z) if isinstance(z, np.integer) else z
        values = (exact_column(self.values, abs(z)) if isinstance(z, int)
                  else self.values) * z
        keep = values != 0
        return _coalesced(self.window, self.degree, self.tuples[keep], values[keep])

    def sup_norm(self) -> float:
        return _sup(self.values)

    def __eq__(self, other):
        return (isinstance(other, UfChain) and self.degree == other.degree
                and self.window is other.window
                and np.array_equal(self.tuples, other.tuples)
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        return id(self)

    def __repr__(self):
        return (f"{type(self).__name__}(degree={self.degree}, terms={len(self)}, "
                f"propagation={self.propagation})")


def summed_arrays(degree: int, acc: dict):
    """The coalesced arrays of a dict of checked degree-q tuples -> summed
    coefficients: rows in sorted order, zeros dropped."""
    keys = sorted(k for k, v in acc.items() if v != 0)
    return (np.array(keys, dtype=np.int64).reshape(-1, degree + 1),
            exact_column([acc[k] for k in keys]))


def _coalesced(window: Window, degree: int, tuples, values) -> UfChain:
    """A plain UfChain on arrays that are already coalesced."""
    c = UfChain.__new__(UfChain)
    c.window, c.degree = window, degree
    return c._assign(tuples, values)


# -- operations ----------------------------------------------------------------

def sort_sign(tuples: np.ndarray):
    """Each row sorted, the sign of its sorting permutation and whether the
    row's points are distinct.

    A bubble network over the columns sorts every row at once: each step puts
    one adjacent column pair in order with ``np.minimum``/``np.maximum``, and a
    pair that was strictly out of order is one transposition, so the parity of
    the swaps is the parity of the row's strict inversions.  Equal points are
    never swapped; adjacent sorted columns that are equal mark a repeat."""
    S, m = tuples.shape
    cols = [tuples[:, j] for j in range(m)]
    odd = np.zeros(S, dtype=bool)
    for end in range(m - 1, 0, -1):
        for i in range(end):
            a, b = cols[i], cols[i + 1]
            odd ^= a > b
            cols[i], cols[i + 1] = np.minimum(a, b), np.maximum(a, b)
    distinct = np.ones(S, dtype=bool)
    for a, b in zip(cols, cols[1:]):
        distinct &= a != b
    return np.column_stack(cols), 1 - 2 * odd.astype(np.int64), distinct


def faces(tuples: np.ndarray, values: np.ndarray):
    """The alternating face rows of sum_r values[r] * tuples[r], not
    coalesced: face j of every row (column j dropped), times (-1)^j."""
    cols = np.arange(tuples.shape[1])
    return (np.concatenate([tuples[:, cols != j] for j in cols]),
            np.concatenate([values if j % 2 == 0 else -values for j in cols]))


def boundary_arrays(window: Window, degree: int, tuples: np.ndarray,
                    values: np.ndarray):
    """Alternating face sum of the chain sum_r values[r] * tuples[r], coalesced."""
    if degree == 0:
        raise DegreeError("ufchain.boundary: degree 0 chains have no boundary")
    S, m = tuples.shape
    return coalesce(*faces(tuples, exact_column(values, m * S)))


def boundary(c: UfChain) -> UfChain:
    """Alternating face sum; exact cancellation for exact coefficients."""
    return _coalesced(c.window, c.degree - 1,
                      *boundary_arrays(c.window, c.degree, c.tuples, c.values))


def norm_inf_n(c: UfChain, n: float) -> float:
    """sup |a| * length^n over the support; 0^0 = 1 so diagonals count at n=0.
    The power is taken once per distinct length in Python, as the scalar
    expression rounds (numpy's pow differs in the last bit)."""
    lengths, inverse = np.unique(c.window.tuple_lengths(c.tuples), return_inverse=True)
    weights = np.array([float(ln) ** n for ln in lengths.tolist()])[inverse]
    return float((_magnitudes(c.values) * weights).max(initial=0.0))


def graded_norm(c: UfChain, n: float) -> float:
    """norm_inf_n of the chain plus norm_inf_n of its boundary (0 in degree 0)."""
    extra = norm_inf_n(boundary(c), n) if c.degree >= 1 else 0.0
    return norm_inf_n(c, n) + extra


def shell_norm(c: UfChain, R: int) -> float:
    """sup |a| over tuples with length in (R-1, R]."""
    lengths = c.window.tuple_lengths(c.tuples)
    return _sup(c.values[(R - 1 < lengths) & (lengths <= R)])


# -- generation and serialization ----------------------------------------------

def random_chain(window: Window, degree: int, n_terms: int, max_len: int,
                 seed, coeff: str = "complex", safe_radius: int | None = None) -> UfChain:
    """Seeded random chain of tuples drawn around margin-safe anchors.

    Each term picks an anchor at distance <= W - safe_radius from the base
    (safe_radius defaults to the margin, so only the anchor is sure to be
    margin-safe) and draws its degree + 1 points from the ball of radius
    max_len around it.  The whole support is margin-safe when safe_radius >=
    margin + max_len.
    coeff: 'complex' (unit-disk complex floats), 'int' (nonzero in [-5, 5]),
    used by the exact combinatorial tests.
    """
    if coeff not in ("complex", "int"):
        raise PreconditionError(
            f"ufchain.random_chain: coeff must be 'complex' or 'int', got {coeff!r}")
    if degree < 0:
        raise DegreeError("ufchain: degree must be >= 0")
    rng = np.random.default_rng(seed)
    if safe_radius is None:
        safe_radius = window.margin
    anchors = np.flatnonzero(window.dist_to_base <= window.W - safe_radius)
    if len(anchors) == 0:
        raise PointNotInWindowError("ufchain.random_chain: no safe anchor points")
    balls = window.derived(("ball", max_len), dict)
    integers, n_anchors, vertices = rng.integers, len(anchors), range(int(degree) + 1)
    # the terms are summed in input order, as UfChain(window, degree, terms)
    # sums them; their points come from the window, so need no range check
    acc = {}
    for _ in range(n_terms):
        a = anchors.item(integers(n_anchors))
        near = balls.get(a)
        if near is None:
            near = balls[a] = np.flatnonzero(
                window.dist_cross([a], np.arange(window.n_points))[0] <= max_len)
            near.flags.writeable = False
        n_near = len(near)
        tup = tuple([near.item(integers(n_near)) for _ in vertices])
        if coeff == "int":
            v = int(integers(1, 6)) * (1 if rng.random() < 0.5 else -1)
        else:
            v = complex(rng.normal(), rng.normal())
            v /= max(1.0, abs(v))
        acc[tup] = acc[tup] + v if tup in acc else v
    return _coalesced(window, int(degree), *summed_arrays(degree, acc))


def to_json_dict(c: UfChain) -> dict:
    terms = [{"tuple": tup, "re": complex(v).real, "im": complex(v).imag}
             for tup, v in zip(c.tuples.tolist(), c.values.tolist())]
    return {"degree": c.degree, "terms": terms, "window": c.window.descriptor()}


def from_json_dict(d: dict, window: Window) -> UfChain:
    terms = [(tuple(t["tuple"]), complex(t["re"], t.get("im", 0.0)))
             for t in d["terms"]]
    return UfChain(window, d["degree"], terms)


def save_chain(c: UfChain, path: str):
    with open(path, "w") as fh:
        json.dump(to_json_dict(c), fh, indent=1)
