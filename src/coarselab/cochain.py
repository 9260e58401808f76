"""Coarse cochains, the Alexander-Spanier coboundary, pairing.

Cochains are intensional expression trees (jumps, finite tables, indicators,
sums/scalings, coboundaries) so the near-diagonal support condition stays
checkable as windows grow.  Two coboundary conventions exist: "full" sums the
alternating faces from index 0 (this one is adjoint to the chain boundary and
is the default), "from1" starts at index 1; both square to zero.

Every node evaluates on rows: values(window, tuples) takes an (S, q+1) array
of point ids and returns the S values, so a pairing is one masked sum over a
chain's rows and a support check one call over its candidate tuples;
evaluate() is the one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegreeError, PreconditionError
from .spaces import Window
from .ufchain import UfChain, exact_column, norm_inf_n

CONVENTIONS = ("full", "from1")


class CoarseCochain:
    """Base expression node; subclasses implement values()."""

    degree: int

    def values(self, window: Window, tuples: np.ndarray) -> np.ndarray:
        """The cochain on each row of an (S, degree+1) array of point ids."""
        raise NotImplementedError

    def __add__(self, other):
        return Sum(self, other)

    def __rmul__(self, z):
        return Scale(z, self)


class Jump(CoarseCochain):
    """Degree-1 jump across a coordinate hyperplane on a lattice window.

    value(y0, y1) = h(y1) - h(y0) with h the indicator of
    coordinate[axis] >= threshold.  Closed for the full coboundary.
    """

    def __init__(self, axis: int = 0, threshold: int = 0):
        self.degree = 1
        self.axis = axis
        self.threshold = threshold

    def values(self, window, tuples):
        if window.coords is None:
            raise PreconditionError("cochain.Jump: needs a lattice window")
        h = (window.coords[:, self.axis] >= self.threshold).astype(np.int64)
        return h[tuples[:, 1]] - h[tuples[:, 0]]

    def __repr__(self):
        return f"Jump(axis={self.axis}, threshold={self.threshold})"


class Table(CoarseCochain):
    """Explicit finite tuple -> value map; evaluates to 0 off its table."""

    def __init__(self, degree: int, entries: dict):
        self.degree = degree
        self.entries = {tuple(int(p) for p in t): v for t, v in entries.items()
                        if v != 0}
        for t in self.entries:
            if len(t) != degree + 1:
                raise DegreeError(
                    f"cochain.Table: tuple {t} has arity {len(t)}, "
                    f"degree {degree} needs {degree + 1}")

    def values(self, window, tuples):
        get = self.entries.get
        return exact_column([get(t, 0) for t in map(tuple, tuples.tolist())])

    def __repr__(self):
        return f"Table(degree={self.degree}, entries={len(self.entries)})"


class Indicator(CoarseCochain):
    """Degree-0 indicator of a point set (by ids or by a coordinate predicate)."""

    def __init__(self, points=None, predicate=None):
        if (points is None) == (predicate is None):
            raise PreconditionError(
                "cochain.Indicator: give exactly one of points and predicate")
        self.degree = 0
        self.points = frozenset(int(p) for p in points) if points is not None else None
        self.predicate = predicate

    def values(self, window, tuples):
        if self.points is not None:
            return np.isin(tuples[:, 0], list(self.points)).astype(np.int64)
        return np.array([1 if self.predicate(window.label(p)) else 0
                         for p in tuples[:, 0].tolist()], dtype=np.int64)


class Sum(CoarseCochain):
    def __init__(self, left: CoarseCochain, right: CoarseCochain):
        if left.degree != right.degree:
            raise DegreeError("cochain.Sum: degree mismatch")
        self.degree = left.degree
        self.left, self.right = left, right

    def values(self, window, tuples):
        return (exact_column(self.left.values(window, tuples), 2)
                + exact_column(self.right.values(window, tuples), 2))


class Scale(CoarseCochain):
    def __init__(self, z, child: CoarseCochain):
        self.degree = child.degree
        self.z = int(z) if isinstance(z, np.integer) else z
        self.child = child

    def values(self, window, tuples):
        v = self.child.values(window, tuples)
        return self.z * (exact_column(v, abs(self.z)) if isinstance(self.z, int) else v)


class Coboundary(CoarseCochain):
    """Alexander-Spanier coboundary node for either convention."""

    def __init__(self, child: CoarseCochain, convention: str = "full"):
        if convention not in CONVENTIONS:
            raise PreconditionError(
                f"cochain.Coboundary: convention must be one of {CONVENTIONS}")
        self.degree = child.degree + 1
        self.child = child
        self.convention = convention

    def values(self, window, tuples):
        # one child call on every face stacked (face lo of all rows, then
        # face lo + 1, ...), the signed faces summed in index order
        lo = 0 if self.convention == "full" else 1
        n, m = tuples.shape
        keep = [[j for j in range(m) if j != i] for i in range(lo, m)]
        faces = tuples[:, keep].transpose(1, 0, 2).reshape(-1, m - 1)
        v = exact_column(self.child.values(window, faces), m).reshape(m - lo, n)
        total = np.zeros(n, dtype=np.int64)
        for i, vi in enumerate(v, lo):
            total = total + (-vi if i % 2 else vi)
        return total


def evaluate(phi: CoarseCochain, window: Window, tup) -> complex:
    """Evaluate the expression tree on a tuple of point ids."""
    tup = tuple(int(p) for p in tup)
    if len(tup) != phi.degree + 1:
        raise DegreeError(
            f"cochain.evaluate: tuple arity {len(tup)} does not match "
            f"degree {phi.degree}")
    for p in tup:
        window.check_point(p)
    return phi.values(window, np.array([tup], dtype=np.int64)).tolist()[0]


def coboundary(phi: CoarseCochain, convention: str = "full") -> CoarseCochain:
    return Coboundary(phi, convention)


# -- support certification ------------------------------------------------------

@dataclass
class SupportSlice:
    R: int
    count: int
    diameter: int
    unbounded_within_window: bool


def support_check(phi: CoarseCochain, window: Window, Rmax: int) -> dict[int, SupportSlice]:
    """Measure supp(phi) intersected with tuples of length <= R, per R <= Rmax.

    The candidate tuples of margin-safe points, pairwise within Rmax, are
    grown one column at a time and evaluated in one call.  The diameter is
    taken in the product metric.  When the support touches the boundary of
    the margin-safe region the slice is flagged as unbounded within the
    window (boundedness cannot be certified from this window alone).
    """
    window.require_margin(Rmax, "cochain.support_check")
    q = phi.degree
    safe = window.safe_points
    safe_limit = window.W - window.margin
    near = window.dist_cross(safe, safe) <= Rmax
    rows = np.arange(len(safe))[:, None]
    for _ in range(q):
        r, nxt = np.nonzero(near[rows[:, 0]])
        ok = near[rows[r], nxt[:, None]].all(axis=1)
        rows = np.column_stack([rows[r[ok]], nxt[ok]])
    tuples = safe[rows]
    tuples = tuples[phi.values(window, tuples) != 0]
    lengths = window.tuple_lengths(tuples)
    report = {}
    for R in range(1, Rmax + 1):
        arr = tuples[lengths <= R]
        diam = max(int(window.dist_cross(col, col).max(initial=0))
                   for col in map(np.unique, arr.T))
        touches = bool((window.dist_to_base[arr] >= safe_limit).any())
        report[R] = SupportSlice(R, len(arr), diam, touches)
    return report


# -- pairing ---------------------------------------------------------------------

def pair_arrays(phi: CoarseCochain, window: Window, tuples: np.ndarray,
                values: np.ndarray):
    """<phi, sum_r values[r] * tuples[r]>, for rows without repeats.

    Margin-safety is enforced for contributing rows (nonzero cochain value);
    vacuous rows may live near the edge.
    """
    if tuples.shape[1] != phi.degree + 1:
        raise DegreeError(
            f"cochain.pair: cochain degree {phi.degree} vs chain degree "
            f"{tuples.shape[1] - 1}")
    phis = phi.values(window, tuples)
    hit = phis != 0
    unsafe = np.flatnonzero(hit & ~window.safe_mask[tuples].all(axis=1))
    if len(unsafe):
        window.check_tuple_safe(tuples[unsafe[0]], "cochain.pair")
    phis, values = phis[hit], values[hit]
    if phis.dtype.kind in "iu":
        values = exact_column(values, len(values) * int(np.abs(phis).max(initial=1)))
    total = (phis * values).sum()
    return total.item() if isinstance(total, np.generic) else total


def pair(phi: CoarseCochain, c: UfChain):
    """<phi, c> = sum over the chain support of phi(tuple) * coefficient,
    enforcing margin-safety for contributing tuples (see pair_arrays)."""
    return pair_arrays(phi, c.window, c.tuples, c.values)


# -- continuity sweep --------------------------------------------------------------

@dataclass
class SweepRow:
    trial: int
    pairing: complex
    norm: float
    ratio: float


@dataclass
class SweepResult:
    max_ratio: float
    rows: list
    trivial: int


def continuity_sweep(phi: CoarseCochain, chain_sampler, n: float,
                     trials: int, seed: int = 0) -> SweepResult:
    """Max of |<phi, sigma>| / ||sigma||_{inf,n} over seeded random chains.

    chain_sampler(trial_seed) must return a UfChain of matching degree.
    Chains with zero norm are counted as trivial and skipped.
    """
    rows = []
    trivial = 0
    best = 0.0
    for t in range(trials):
        sigma = chain_sampler(seed + t)
        norm = norm_inf_n(sigma, n)
        if norm == 0:
            trivial += 1
            continue
        p = complex(pair(phi, sigma))
        ratio = abs(p) / norm
        rows.append(SweepRow(t, p, norm, ratio))
        best = max(best, ratio)
    return SweepResult(best, rows, trivial)
