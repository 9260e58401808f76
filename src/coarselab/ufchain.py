"""Uniformly finite chains on a window: boundary, decay norms, shells.

A chain of degree q is a finitely supported map from (q+1)-tuples of window
points to coefficients.  Coefficients may be ints or Fractions (exact
combinatorial path) or complex floats (analytic path); boundary cancellation
is exact whenever the coefficients are exact.  This is the one chain class:
a fill.SimplicialChain is a UfChain on sorted Kuhn simplices, so the
filler's chains share its arithmetic, boundary and norms.

Tuple length is the max pairwise distance of the tuple's points; it is the
shell coordinate used by shell_norm (the product-metric distance to the
diagonal differs from it only by a convention-dependent constant, and this
artifact standardizes on tuple length).
"""

from __future__ import annotations

import json

import numpy as np

from ._accel import coalesce
from .errors import DegreeError, PointNotInWindowError
from .spaces import Window


def _accumulate(support: dict, key: tuple, val):
    """support[key] += val, an absent key reading 0; a zero sum drops the key."""
    if val == 0:
        return
    acc = support.get(key)
    if acc is not None:
        val = acc + val
        if val == 0:
            del support[key]
            return
    support[key] = val


class UfChain:
    """Finitely supported degree-q chain; value-semantic and immutable."""

    __slots__ = ("window", "degree", "support", "_propagation")

    def __init__(self, window: Window, degree: int, terms=None, _validated=False):
        """_validated: the caller vouches that every tuple is an int tuple of
        arity degree + 1 inside the window (faces, sums, fillings of chains)."""
        if degree < 0:
            raise DegreeError("ufchain: degree must be >= 0")
        self.window = window
        self.degree = int(degree)
        support: dict[tuple, object] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for tup, val in items:
                if not _validated:
                    tup = tuple(int(p) for p in tup)
                    if len(tup) != degree + 1:
                        raise DegreeError(
                            f"ufchain: tuple {tup} has arity {len(tup)}, "
                            f"degree {degree} needs {degree + 1}")
                    for p in tup:
                        if not (0 <= p < window.n_points):
                            raise PointNotInWindowError(
                                f"ufchain: point id {p} not in window")
                _accumulate(support, tup, val)
        self.support = support
        self._propagation = None

    # -- basic structure ---------------------------------------------------

    def __len__(self):
        return len(self.support)

    def terms(self):
        return self.support.items()

    def coefficient(self, tup):
        return self.support.get(tuple(int(p) for p in tup), 0)

    @property
    def propagation(self):
        if self._propagation is None:
            self._propagation = max(
                (self.window.tuple_length(t) for t in self.support), default=0)
        return self._propagation

    def __add__(self, other: "UfChain") -> "UfChain":
        if other.degree != self.degree or other.window is not self.window:
            raise DegreeError("ufchain: chain addition needs matching window/degree")
        merged = dict(self.support)
        for t, v in other.support.items():
            _accumulate(merged, t, v)
        return UfChain(self.window, self.degree, merged, _validated=True)

    def __sub__(self, other: "UfChain") -> "UfChain":
        return self + other.scale(-1)

    def scale(self, z) -> "UfChain":
        if z == 0:
            return UfChain(self.window, self.degree)
        return UfChain(self.window, self.degree,
                       {t: z * v for t, v in self.support.items()}, _validated=True)

    def sup_norm(self) -> float:
        return max((abs(v) for v in self.support.values()), default=0.0)

    def __eq__(self, other):
        return (isinstance(other, UfChain) and self.degree == other.degree
                and self.window is other.window and self.support == other.support)

    def __hash__(self):
        return id(self)

    def __repr__(self):
        return (f"{type(self).__name__}(degree={self.degree}, terms={len(self.support)}, "
                f"propagation={self.propagation})")

    # -- array interop (fast path used by the character map) -----------------

    @classmethod
    def from_arrays(cls, window: Window, degree: int, tuples: np.ndarray,
                    values: np.ndarray) -> "UfChain":
        c = cls(window, degree)
        c.support = {tuple(int(x) for x in row): complex(v)
                     for row, v in zip(tuples, values) if v != 0}
        return c

    def arrays(self):
        S = len(self.support)
        tuples = np.empty((S, self.degree + 1), dtype=np.int64)
        values = np.empty(S, dtype=np.complex128)
        for i, (t, v) in enumerate(self.support.items()):
            tuples[i] = t
            values[i] = complex(v)
        return tuples, values


# -- operations ----------------------------------------------------------------

def boundary(c: UfChain) -> UfChain:
    """Alternating face sum; exact cancellation for exact coefficients."""
    if c.degree == 0:
        raise DegreeError("ufchain.boundary: degree 0 chains have no boundary")
    out: dict[tuple, object] = {}
    for tup, val in c.support.items():
        for j in range(len(tup)):
            _accumulate(out, tup[:j] + tup[j + 1:], -val if j % 2 else val)
    return UfChain(c.window, c.degree - 1, out, _validated=True)


def boundary_arrays(window: Window, degree: int, tuples: np.ndarray,
                    values: np.ndarray):
    """boundary() on the raw-array representation (vectorized)."""
    if degree == 0:
        raise DegreeError("ufchain.boundary: degree 0 chains have no boundary")
    S, m = tuples.shape
    cols = np.arange(m)
    parts_t = []
    parts_v = []
    for j in range(m):
        parts_t.append(tuples[:, cols != j])
        parts_v.append(values if j % 2 == 0 else -values)
    if S == 0:
        return np.empty((0, m - 1), dtype=np.int64), np.empty(0, np.complex128)
    return coalesce(np.concatenate(parts_t), np.concatenate(parts_v))


def norm_inf_n(c: UfChain, n: float) -> float:
    """sup |a| * length^n over the support; 0^0 = 1 so diagonals count at n=0."""
    best = 0.0
    for tup, val in c.support.items():
        ln = c.window.tuple_length(tup)
        weight = 1.0 if (ln == 0 and n == 0) else float(ln) ** n
        best = max(best, abs(val) * weight)
    return best


def graded_norm(c: UfChain, n: float) -> float:
    """norm_inf_n of the chain plus norm_inf_n of its boundary (0 in degree 0)."""
    extra = norm_inf_n(boundary(c), n) if c.degree >= 1 else 0.0
    return norm_inf_n(c, n) + extra


def shell_norm(c: UfChain, R: int) -> float:
    """sup |a| over tuples with length in (R-1, R]."""
    best = 0.0
    for tup, val in c.support.items():
        ln = c.window.tuple_length(tup)
        if R - 1 < ln <= R:
            best = max(best, abs(val))
    return best


# -- generation and serialization ----------------------------------------------

def random_chain(window: Window, degree: int, n_terms: int, max_len: int,
                 seed, coeff: str = "complex", safe_radius: int | None = None) -> UfChain:
    """Seeded random chain with margin-safe support and bounded tuple length.

    coeff: 'complex' (unit-disk complex floats), 'int' (nonzero in [-5, 5]),
    used by the exact combinatorial tests.
    """
    rng = np.random.default_rng(seed)
    if safe_radius is None:
        safe_radius = window.margin
    anchors = np.flatnonzero(window.dist_to_base <= window.W - safe_radius)
    if len(anchors) == 0:
        raise PointNotInWindowError("ufchain.random_chain: no safe anchor points")
    terms = []
    for _ in range(n_terms):
        a = int(anchors[rng.integers(len(anchors))])
        near = np.flatnonzero(
            window.dist_cross([a], np.arange(window.n_points))[0] <= max_len)
        tup = tuple(int(near[rng.integers(len(near))]) for _ in range(degree + 1))
        if coeff == "int":
            v = int(rng.integers(1, 6)) * (1 if rng.random() < 0.5 else -1)
        else:
            v = complex(rng.normal(), rng.normal())
            v /= max(1.0, abs(v))
        terms.append((tup, v))
    return UfChain(window, degree, terms)


def to_json_dict(c: UfChain) -> dict:
    terms = []
    for tup, val in sorted(c.support.items()):
        z = complex(val)
        terms.append({"tuple": list(tup), "re": z.real, "im": z.imag})
    return {"degree": c.degree, "terms": terms, "window": c.window.descriptor()}


def from_json_dict(d: dict, window: Window) -> UfChain:
    terms = [(tuple(t["tuple"]), complex(t["re"], t.get("im", 0.0)))
             for t in d["terms"]]
    return UfChain(window, d["degree"], terms)


def save_chain(c: UfChain, path: str):
    with open(path, "w") as fh:
        json.dump(to_json_dict(c), fh, indent=1)

