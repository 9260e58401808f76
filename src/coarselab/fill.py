"""Constructive filling of point tuples by chains of the Kuhn triangulation.

The Kuhn (Freudenthal) triangulation of the integer lattice has vertex set
Z^d, edges v -> v + 1_S for nonempty subsets S of the axes, and in 2-D the two
triangle families [v, v+e0, v+(1,1)] and [v, v+e1, v+(1,1)].  Windows built by
make_window order lattice points lexicographically, so sorting a simplex by
point id is the same as sorting by coordinates.  A SimplicialChain is a
ufchain.UfChain on sorted Kuhn simplices, the sorting parity folded into the
coefficient; it shares UfChain's arithmetic, boundary and norms, so a
filling and the chain it fills compare and subtract directly.

The filler:
  degree 0   vertex itself
  degree 1   single Kuhn edge when the pair spans one, otherwise the
             axis-ordered staircase path (axis 0 first, then axis 1, ...)
  degree 2   cone of the first point over the staircase of the opposite edge
             (columns of lattice squares), plus a one-triangle correction per
             diagonal face pair.  This reproduces unit simplices identically,
             which makes the roundtrip on simplicial chains the identity.

Boundary compatibility d(fill(y0..yq)) = sum_j (-1)^j fill(.. without yj ..)
holds exactly in integer arithmetic; degree 2 is supported on 1-D and 2-D
lattice windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreeError, FillError, MarginError
from .spaces import GrowthFit, Window, fit_growth
from .ufchain import UfChain, _accumulate, boundary, norm_inf_n, shell_norm
from .cochain import ControlFit


def _parity_sorted(tup):
    """Sort a tuple, returning (sorted, sign of permutation, degenerate?)."""
    arr = list(tup)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(arr)):
        if arr[i] == arr[i - 1]:
            return tuple(arr), 0, True
    return tuple(arr), sign, False


class SimplicialChain(UfChain):
    """A UfChain on sorted simplices of the Kuhn triangulation.

    Only construction is its own: add_simplex sorts each simplex with its
    orientation sign and rejects anything outside the triangulation.
    """

    __slots__ = ()

    def __init__(self, window: Window, degree: int, terms=None):
        super().__init__(window, degree)
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for simplex, coeff in items:
                self.add_simplex(simplex, coeff)

    def add_simplex(self, simplex, coeff):
        """Accumulate an (arbitrarily ordered) simplex with orientation sign.

        Degenerate simplices vanish; anything that is not a simplex of the
        triangulation is rejected.
        """
        if coeff == 0:
            return
        key, sign, degenerate = _parity_sorted(tuple(int(p) for p in simplex))
        if degenerate:
            return
        if len(key) != self.degree + 1:
            raise DegreeError(
                f"fill.SimplicialChain: simplex {key} has arity {len(key)}, "
                f"degree {self.degree} needs {self.degree + 1}")
        if key not in self.support and not is_kuhn_simplex(self.window, key):
            raise FillError(
                f"fill.SimplicialChain: {tuple(self.window.label(p) for p in key)} "
                "is not a simplex of the triangulation")
        _accumulate(self.support, key, sign * coeff)
        self._propagation = None


# the face sum of sorted simplices is the chain boundary; the name stays
# for callers that spell out the simplicial side
simplicial_boundary = boundary


def is_kuhn_simplex(window: Window, key) -> bool:
    """Is the sorted id tuple a genuine simplex of the triangulation?"""
    coords = [window.label(p) for p in key]
    q = len(key) - 1
    if q == 0:
        return True
    if q == 1:
        d = np.array(coords[1]) - np.array(coords[0])
        return bool(np.all((d == 0) | (d == 1)) and np.any(d != 0))
    if q == 2 and window.dim == 2:
        v0, v1, v2 = (np.array(c) for c in coords)
        d1, d2 = v1 - v0, v2 - v1
        steps = {tuple(d1), tuple(d2)}
        return steps in ({(1, 0), (0, 1)}, {(0, 1), (1, 0)}) and tuple(d1 + d2) == (1, 1)
    return False


# -- the filler -----------------------------------------------------------------

def _require_fillable(window: Window, degree: int, what: str):
    if window.kind not in ("zd", "interval_z"):
        raise FillError(f"{what}: fillers are defined on lattice windows only, "
                        f"got kind={window.kind!r}")
    if degree > 2:
        raise FillError(f"{what}: degrees above 2 are outside the core "
                        "build (documented extension point)")
    if degree == 2 and window.dim not in (1, 2):
        raise FillError(f"{what}: degree-2 fillings are implemented for "
                        "1-D and 2-D lattice windows")


def _bbox_check(window: Window, tup, what: str):
    coords = np.array([window.label(p) for p in tup], dtype=np.int64)
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    # l1 and linf grow with each |coordinate|: one corner is the farthest
    corner = np.where(np.abs(lo) > np.abs(hi), lo, hi)
    dist = int(window._zd_norm(corner))
    if dist > window.W:
        labels = tuple(window.label(int(p)) for p in tup)
        raise MarginError(
            f"{what}: filling of tuple {labels} needs the box corner "
            f"{tuple(int(x) for x in corner)} at distance {dist} > W={window.W}; "
            "enlarge the window or its margin")


def _staircase_steps(ca, cb):
    """Oriented unit steps of the axis-ordered lattice path ca -> cb."""
    cur = list(ca)
    for axis in range(len(ca)):
        step = 1 if cb[axis] > cur[axis] else -1
        while cur[axis] != cb[axis]:
            tail = tuple(cur)
            cur[axis] += step
            yield tail, tuple(cur), axis, step


# The filler's pieces add themselves (times z where they take one) to the
# SimplicialChain `out` under construction.

def _staircase(out, ca, cb):
    i = out.window.index_of
    for tail, head, _axis, _step in _staircase_steps(ca, cb):
        out.add_simplex((i(tail), i(head)), 1)


def _square(out, v, z):
    """Q(v): low triangle minus high triangle; boundary is the ccw square loop."""
    a, b = v
    i = out.window.index_of
    out.add_simplex((i((a, b)), i((a + 1, b)), i((a + 1, b + 1))), z)
    out.add_simplex((i((a, b)), i((a, b + 1)), i((a + 1, b + 1))), -z)


def _cone_edge(out, pc, u, axis, step):
    """Cone of point pc over the oriented unit step (u -> u + step*e_axis).

    Boundary is (step edge) - staircase(pc, head) + staircase(pc, tail).
    Steps along the last axis cone to zero; x-steps sweep a column of squares
    between the heights of pc and u.
    """
    if len(pc) == 1 or axis == 1:
        return
    # canonical +x edge at x = min; fold the step direction into the sign
    ux = u[0] if step > 0 else u[0] - 1
    sign = 1 if step > 0 else -1
    py, uy = pc[1], u[1]
    if uy > py:
        for b in range(py, uy):
            _square(out, (ux, b), -sign)
    elif uy < py:
        for b in range(uy, py):
            _square(out, (ux, b), sign)


def _diag_correction(out, ca, cb, z):
    """K(a, b) with boundary fill1(a,b) - staircase(a,b); nonzero for diagonals."""
    if len(ca) != 2:
        return
    dx, dy = cb[0] - ca[0], cb[1] - ca[1]
    i = out.window.index_of
    if (dx, dy) == (1, 1):
        a, b = ca
        out.add_simplex((i((a, b)), i((a + 1, b)), i((a + 1, b + 1))), -z)
    elif (dx, dy) == (-1, -1):
        a, b = cb
        out.add_simplex((i((a, b)), i((a, b + 1)), i((a + 1, b + 1))), z)


def _fill1(out, ca, cb):
    if len(ca) == 2:
        dx, dy = cb[0] - ca[0], cb[1] - ca[1]
        if (dx, dy) in ((1, 1), (-1, -1)):
            # the pair spans a diagonal Kuhn edge; orientation handled by parity
            i = out.window.index_of
            out.add_simplex((i(ca), i(cb)), 1)
            return
    _staircase(out, ca, cb)


def fill_tuple(window: Window, tup) -> UfChain:
    """Fill an (i+1)-tuple of point ids by a degree-i chain, i <= 2.

    The boundary of the result is exactly the alternating sum of the fillings
    of the tuple's faces, and all vertices stay inside the bounding box of the
    tuple's coordinates.  Fillings are memoized per window and handed out as
    plain (immutable) UfChains.
    """
    tup = tuple(int(p) for p in tup)
    degree = len(tup) - 1
    _require_fillable(window, degree, "fill.fill_tuple")
    memo = window.derived("fill", dict)
    cached = memo.get(tup)
    if cached is not None:
        return cached
    _bbox_check(window, tup, "fill.fill_tuple")
    coords = [window.label(p) for p in tup]
    out = SimplicialChain(window, degree)
    if degree == 0:
        out.add_simplex(tup, 1)
    elif degree == 1:
        # diagonal pair fills to the Kuhn edge, else to the staircase;
        # coincident points fill to zero
        _fill1(out, coords[0], coords[1])
    else:
        y0, y1, y2 = coords
        for tail, head, axis, step in _staircase_steps(y1, y2):
            _cone_edge(out, y0, tail, axis, step)
        _diag_correction(out, y1, y2, 1)
        _diag_correction(out, y0, y2, -1)
        _diag_correction(out, y0, y1, 1)
    filled = memo[tup] = UfChain(window, degree, out.support, _validated=True)
    return filled


def fill_chain(c: UfChain) -> UfChain:
    """Linear extension of fill_tuple; a chain map in exact arithmetic."""
    support: dict[tuple, object] = {}
    for tup, coeff in c.support.items():
        for key, v in fill_tuple(c.window, tup).support.items():
            _accumulate(support, key, coeff * v)
    return UfChain(c.window, c.degree, support, _validated=True)


def roundtrip_identity(s: SimplicialChain) -> bool:
    """fill_chain(s) == s, exactly."""
    return fill_chain(s) == s


def fill_radius(window: Window, tup) -> int:
    """Max distance from a filling vertex to the tuple's first point."""
    verts = {p for key in fill_tuple(window, tup).support for p in key}
    verts = np.fromiter(verts or {tup[0]}, dtype=np.int64)
    return int(window.dist_cross([int(tup[0])], verts)[0].max(initial=0))


# -- certified contractibility and the main estimate -----------------------------

def contractibility_profile(window: Window, degree: int, samples: int = 50,
                            rmax: int | None = None, seed: int = 0) -> ControlFit:
    """Certified S'(R) = max filling radius over tuples of length <= R.

    The filler is translation-equivariant and keeps every vertex in the
    bounding box of its tuple, so S'(R) is at most the largest distance from
    a tuple's first point to its box (in l1 each axis extent of three points
    is half the sum of their pairwise gaps):
      degree 0, and degree 2 on a line  0            (C, N) = (1, 0)
      degree 1                          R            (1, 1)
      degree 2, 2-D linf                R            (1, 1)
      degree 2, 2-D l1                  floor(3R/2)  (1.5, 1)
    The bound is attained for R >= 2.  S'(R) <= C * R^N holds for every R,
    not only up to rmax; `profile` lists R = 1..rmax.
    `samples` and `seed` are accepted and ignored; perfbench's exact
    workload passes them.
    """
    _require_fillable(window, degree, "fill.contractibility_profile")
    if rmax is None:
        rmax = max(2, (window.W // 3))
    # S'(R) = floor(k R / 2)
    if degree == 0 or (degree == 2 and window.dim == 1):
        k = 0
    elif degree == 2 and window.metric == "l1":
        k = 3
    else:
        k = 2
    C, N = (k / 2, 1.0) if k else (1.0, 0.0)
    profile = {R: k * R // 2 for R in range(1, rmax + 1)}
    return ControlFit(C=C, N=N, residual=0.0, profile=profile)


@dataclass
class FillingReport:
    """Both sides of the sup-norm filling estimate with certified constants."""
    s_profile: dict
    C: float
    N: float
    D: float
    M: float
    q: int
    n: float
    lhs: float
    rhs: float
    passed: bool
    chain_norm: float = 0.0

    def as_dict(self):
        return {"C": self.C, "N": self.N, "D": self.D, "M": self.M, "q": self.q,
                "n": self.n, "lhs": self.lhs, "rhs": self.rhs,
                "passed": self.passed, "chain_norm": self.chain_norm}


def verify_crucial_estimate(c: UfChain, growth: GrowthFit | None = None,
                            profile: ControlFit | None = None) -> FillingReport:
    """Check the filling sup-norm bound.

    Uses the measured growth envelope (D, M), the certified contractibility
    profile (C, N), the derived exponent n = M*q*(N+1) + 2, and compares the
    sup norm of the filled chain against
    D^(q+1) * C^M * (2^n pi^2/6 + 1) * ||c||_{inf,n}.
    """
    window = c.window
    if growth is None:
        growth = fit_growth(window)
    if profile is None:
        profile = contractibility_profile(window, c.degree)
    q = c.degree
    n = growth.M * q * (profile.N + 1) + 2
    chain_norm = norm_inf_n(c, n)
    lhs = fill_chain(c).sup_norm()
    rhs = (growth.D ** (q + 1)) * (profile.C ** growth.M) \
        * (2.0 ** n * math.pi ** 2 / 6.0 + 1.0) * chain_norm
    return FillingReport(s_profile=dict(profile.profile or {}), C=profile.C,
                         N=profile.N, D=growth.D, M=growth.M, q=q, n=n,
                         lhs=lhs, rhs=rhs,
                         passed=bool(lhs <= rhs * (1 + 1e-12) + 1e-12),
                         chain_norm=chain_norm)


def coefficient_sum_bound(c: UfChain, profile: ControlFit) -> tuple[float, float]:
    """Shell-summed counting bound on the filled chain's sup norm.

    rhs = sum_R shell(c,R) * vol B_{S'(R)} * (vol B_R - vol B_{R-1}) *
          (vol B_R)^(q-1); the balls are measured around the base point.
    """
    w = c.window
    q = c.degree
    vols = {}

    def vol(r):
        r = int(min(max(r, 0), w.W))
        if r not in vols:
            vols[r] = int(np.count_nonzero(w.dist_to_base <= r))
        return vols[r]

    prof = profile.profile or {}
    rmax = int(max((w.tuple_length(t) for t in c.support), default=0))
    rhs = 0.0
    for R in range(1, rmax + 1):
        s = shell_norm(c, R)
        if s == 0:
            continue
        sprime = prof.get(R)
        if sprime is None:
            sprime = math.ceil(profile.C * R ** profile.N)
        rhs += s * vol(sprime) * (vol(R) - vol(R - 1)) * vol(R) ** max(q - 1, 0)
    lhs = fill_chain(c).sup_norm()
    return lhs, rhs
