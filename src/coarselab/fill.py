"""Constructive filling of point tuples by chains of the Kuhn triangulation.

The Kuhn (Freudenthal) triangulation of Z^d has a simplex for each chain of
points whose steps are nonzero 0/1 vectors and whose last point exceeds the
first by at most 1 on every axis.  Windows built by make_window order lattice
points lexicographically, so sorting a simplex by point id is the same as
sorting by coordinates.  A filling is a ufchain.UfChain on sorted Kuhn
simplices, the sorting parity folded into the coefficient.

One construction fills tuples of every degree: F' = F + dH + Hd, where
  h_p  contracts the cubical chains of Z^d toward the vertex p (the tensor
       product of the 1-D contractions): term k of a cube needs its axes
       from k up to be vertices, moves those above k to p and replaces axis
       k by the unit path p_k -> x_k;
  F    is EZ F_cub, F_cub(y_q) = y_q and F_cub(y_0..y_q) = h_{y_0}
       F_cub(y_1..y_q); the shuffle map EZ (Eilenberg and Mac Lane, Ann. of
       Math. 58, 1953) sends a unit cube on the axes S to the sum over orders
       pi of S of sgn(pi), against S descending, times the Kuhn simplex that
       steps along pi: Kuhn's triangulation is the shuffle triangulation of a
       product of intervals (Freudenthal, Ann. of Math. 43, 1942);
  H    is nonzero only on orderings y of Kuhn simplices (2 on Z^2, the
       diagonal edge both ways; 38 on Z^3).  The residual sgn * simplex -
       F(y) - H(dy) is a cycle in y's unit box, a cone on its low corner, and
       prepending that corner fills it; so F'(y) = sgn * simplex, and the
       roundtrip on simplicial chains is the identity.
Every vertex of F'(y) lies in y's coordinate box, the bound under
contractibility_profile: h_p keeps each coordinate between those of p and of
its cube, EZ stays in the unit cube, and H of a face in the face's unit box.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DegreeError, FillError, MarginError, PointNotInWindowError
from .spaces import GrowthFit, Window, fit_growth
from .ufchain import UfChain, boundary, norm_inf_n, shell_norm, summed_arrays


class SimplicialChain(UfChain):
    """A UfChain on sorted Kuhn simplices of a lattice window, built in place
    by add_simplex, which sorts each simplex with its orientation sign and
    rejects anything outside the triangulation."""

    __slots__ = ()

    def __init__(self, window: Window, degree: int):
        _require_lattice(window, "fill.SimplicialChain")
        super().__init__(window, degree)

    def add_simplex(self, simplex, coeff):
        """Accumulate an (arbitrarily ordered) simplex with orientation sign.

        Vertices are point ids (integers below n_points, else
        PointNotInWindowError).  Degenerate simplices vanish; anything that
        is not a simplex of the triangulation is rejected.
        """
        if coeff == 0:
            return
        try:
            ids = list(map(operator.index, simplex))
        except TypeError:           # a vertex that is not an integer
            ids = None
        if ids is None or not all(0 <= p < self.window.n_points for p in ids):
            raise PointNotInWindowError(
                f"fill.SimplicialChain: simplex {simplex!r} has a vertex that is "
                f"not a point id of the window ({self.window.n_points} points)")
        key = tuple(sorted(ids))
        if any(a == b for a, b in zip(key, key[1:])):
            return
        if len(key) != self.degree + 1:
            raise DegreeError(
                f"fill.SimplicialChain: simplex {key} has arity {len(key)}, "
                f"degree {self.degree} needs {self.degree + 1}")
        if not kuhn_rows(self.window, np.array([key]))[0]:
            raise FillError(
                f"fill.SimplicialChain: {tuple(self.window.label(p) for p in key)} "
                "is not a simplex of the triangulation")
        acc = dict(self.support)
        value = _parity(ids) * coeff
        acc[key] = acc[key] + value if key in acc else value
        self._assign(*summed_arrays(self.degree, acc))


# the face sum of sorted simplices is the chain boundary; the name stays
# for callers that spell out the simplicial side
simplicial_boundary = boundary


def kuhn_rows(window: Window, rows: np.ndarray) -> np.ndarray:
    """Which rows of increasing point ids are simplices of the triangulation:
    every step (nonzero, as the ids increase) and last - first are 0/1."""
    v = window.coords.take(rows, axis=0)
    diffs = np.concatenate([v[:, 1:] - v[:, :-1], v[:, -1:] - v[:, :1]], axis=1)
    # read as unsigned, a negative entry is above 2^63: 0/1 entries are <= 1
    return (diffs.view(np.uint64) <= 1).all(axis=(1, 2))


# -- the filler -----------------------------------------------------------------

def _require_lattice(window: Window, what: str):
    if window.kind != "zd":
        raise FillError(f"{what}: fillers are defined on lattice windows only, "
                        f"got kind={window.kind!r}")


def _require_fillable(window: Window, degree: int, what: str):
    _require_lattice(window, what)
    if degree > 2 or window.dim > 2:
        raise FillError(f"{what}: degree {degree} on a {window.dim}-D window is not "
                        "admitted, only degrees up to 2 on 1-D and 2-D windows")


def _bbox_check(window: Window, tuples: np.ndarray, what: str):
    """Every tuple's coordinate box lies in the window, or MarginError."""
    coords = window.coords.take(tuples, axis=0)
    lo, hi = coords.min(axis=1), coords.max(axis=1)
    # l1 and linf grow with each |coordinate|: the farthest corner takes
    # max(|lo|, |hi|) = max(-lo, hi) on each axis
    dist = window._zd_norm(np.maximum(-lo, hi))
    outside = np.flatnonzero(dist > window.W)
    if len(outside):
        r = outside[0]
        labels = tuple(window.label(int(p)) for p in tuples[r])
        corner = np.where(np.abs(lo[r]) > np.abs(hi[r]), lo[r], hi[r])
        raise MarginError(
            f"{what}: filling of tuple {labels} needs the box corner "
            f"{tuple(corner.tolist())} at distance {int(dist[r])} > W={window.W}; "
            "enlarge the window or its margin")


def _offsets(points):
    """The flat offsets of points[1:] from points[0]: the tuple's shape."""
    return tuple(map(operator.sub, chain.from_iterable(points[1:]),
                     points[0] * (len(points) - 1)))


def _parity(seq) -> int:
    """The sign of the permutation that sorts seq."""
    return 1 - 2 * (sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:]) % 2)


def _fill_pieces(out, y, blocks, fills, corrections):
    """Append the pieces of F'(y) to out = (flat corners, shapes, coefficients)."""
    corners, shapes, coefs = out
    q = len(y) - 1
    hit = fills[q].get(_offsets(y))
    if hit:
        corners += y[0] * len(hit[0])
        shapes += hit[0]
        coefs += hit[1]
        return
    for plan, shuffles in blocks[q]:
        ranges, sign = [], 1
        for i, src, interval in plan:
            a, b = y[src - interval][i], y[src][i]
            if a > b:
                a, b, sign = b, a, -sign
            ranges.append(range(a, b) if interval else (b,))
        cells = list(chain.from_iterable(itertools.product(*ranges)))
        n = len(cells) // len(plan)
        for s, shape in shuffles:
            corners += cells
            shapes += [shape] * n
            coefs += [s * sign] * n
    if corrections[q - 1]:
        for j in range(q + 1):
            face = y[:j] + y[j + 1:]
            ks, zs = corrections[q - 1].get(_offsets(face), ((), ()))
            corners += face[0] * len(ks)
            shapes += ks
            coefs += [-z for z in zs] if j % 2 else zs


@functools.cache
def _tables(dim: int):
    """The filler's tables for Z^dim, dicts over the degree q: blocks (per
    chain of q axes, its plan of (axis, point of y, from the point before?)
    and its shuffle pieces), shapes (the Kuhn q-simplices' vertex offsets,
    increasing, in an (n, q+1, dim) array), fills and corrections (F' and
    the nonzero H on the orderings y of Kuhn simplices, keyed by _offsets(y),
    as (shape ids, coefficients) placed at y[0])."""
    shapes = {q: {} for q in range(dim + 2)}

    def shape(verts):
        known = shapes[len(verts) // dim - 1]
        return known.setdefault(verts, len(known))

    # degree dim + 1 has no Kuhn simplex; H is 0 on a vertex's empty face (-1)
    blocks, fills = {q: [] for q in range(dim + 2)}, {q: {} for q in range(dim + 2)}
    corrections = {q: {} for q in range(-1, dim + 2)}
    cube = list(itertools.product((0, 1), repeat=dim))
    for q in range(dim + 1):
        for axes in itertools.combinations(range(dim), q):
            plan = tuple((i, q - sum(a < i for a in axes), i in axes) for i in range(dim))
            # EZ: the Kuhn simplex along each order of the axes, against descending
            shuffles = [(_parity(steps[::-1]), shape(tuple(
                int(a in steps[:k]) for k in range(q + 1) for a in range(dim))))
                for steps in itertools.permutations(axes)]
            blocks[q].append((plan, shuffles))
        # the Kuhn q-simplices at the origin: chains of 0/1 points above it
        for simplex in ((cube[0], *up) for up in itertools.combinations(cube[1:], q)
                        if all(all(map(operator.le, u, v)) for u, v in zip(up, up[1:]))):
            for y in itertools.permutations(simplex):
                # while y has no entry, the generator gives F(y) + H(dy)
                corners, ks, zs = out = [], [], []
                _fill_pieces(out, list(map(list, y)), blocks, fills, corrections)
                verts = np.reshape(corners, (-1, 1, dim)) + np.reshape(
                    list(shapes[q]), (-1, q + 1, dim))[ks]
                pieces = [(tuple(map(tuple, v)), z) for v, z in zip(verts.tolist(), zs)]
                # H(y): the cone on the box's low corner, the origin, of the
                # cycle sgn * simplex - F(y) - H(dy), where the simplex drops out
                residual = {}
                for v, z in pieces:
                    residual[v] = residual.get(v, 0) - z
                cone = [(shape(_offsets([y[0], cube[0], *v])), z)
                        for v, z in residual.items() if z and cube[0] not in v]
                if cone:
                    corrections[q][_offsets(y)] = tuple(zip(*cone))
                    pieces = [(simplex, _parity(y))]
                fills[q][_offsets(y)] = tuple(zip(*[(shape(_offsets([y[0], *v])), z)
                                                    for v, z in pieces]))
    for q in shapes:
        shapes[q] = np.array(list(shapes[q]), dtype=np.int64).reshape(-1, q + 1, dim)
    return blocks, shapes, fills, corrections


def fill_chain(c: UfChain) -> UfChain:
    """F'(c), a chain map in exact arithmetic: the tabled pieces of each tuple
    times its coefficient, checked against the triangulation, coalesced once."""
    w, q = c.window, c.degree
    _require_fillable(w, q, "fill.fill_chain")
    _bbox_check(w, c.tuples, "fill.fill_chain")
    blocks, offsets, fills, corrections = _tables(w.dim)
    corners, shapes, coefs = out = [], [], []
    counts = []
    for y in w.coords.take(c.tuples, axis=0).tolist():
        n = len(coefs)
        _fill_pieces(out, y, blocks, fills, corrections)
        counts.append(len(coefs) - n)
    # a shape lists its vertices in increasing order, so each row is sorted
    points = (np.array(corners, dtype=np.int64).reshape(-1, 1, w.dim)
              + offsets[q][np.array(shapes, dtype=np.intp)])
    rows = w.index_many(points)
    if not kuhn_rows(w, rows).all():
        raise FillError("fill.fill_chain: a piece is not a simplex of the triangulation")
    values = np.repeat(c.values, counts) * np.array(coefs, dtype=np.int64)
    return UfChain.from_arrays(w, q, rows, values)


def fill_tuple(window: Window, tup) -> UfChain:
    """The filling of one (i+1)-tuple of point ids, i <= 2 (see fill_chain)."""
    return fill_chain(UfChain(window, len(tup) - 1, {tuple(tup): 1}))


def roundtrip_identity(s: SimplicialChain) -> bool:
    """fill_chain(s) == s, exactly."""
    return fill_chain(s) == s


# -- certified contractibility and the main estimate -----------------------------

@dataclass
class ContractibilityProfile:
    """Certified S'(R) <= C * R^N; `profile` lists S'(R) for R = 1..rmax."""
    C: float
    N: float
    profile: dict


def contractibility_profile(window: Window, degree: int, samples: int = 50,
                            rmax: int | None = None,
                            seed: int = 0) -> ContractibilityProfile:
    """Certified S'(R) = max filling radius over tuples of length <= R.

    The filler is translation-equivariant and keeps every vertex in the
    coordinate box of its tuple (see the module docstring), so S'(R) is at
    most the largest distance from a tuple's first point to its box (in l1
    each axis extent of three points is half the sum of their pairwise gaps):
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
    return ContractibilityProfile(C=C, N=N, profile=profile)


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


def verify_crucial_estimate(c: UfChain, growth: GrowthFit | None = None,
                            profile: ContractibilityProfile | None = None) -> FillingReport:
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
    return FillingReport(s_profile=dict(profile.profile), C=profile.C,
                         N=profile.N, D=growth.D, M=growth.M, q=q, n=n,
                         lhs=lhs, rhs=rhs,
                         passed=bool(lhs <= rhs * (1 + 1e-12) + 1e-12),
                         chain_norm=chain_norm)


def coefficient_sum_bound(c: UfChain,
                          profile: ContractibilityProfile) -> tuple[float, float]:
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

    prof = profile.profile
    rmax = c.propagation
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
