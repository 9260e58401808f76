"""Finite windows of quasi-lattices: construction, metrics, growth, certification.

A Window is a finite metric ball of radius W around a base point in one of the
supported spaces (integer lattices with l1/linf word metrics, the discrete
Heisenberg group with its {x, y} word metric, the 3-regular tree with the graph
metric).  Points are indexed 0..N-1 in a deterministic order; all distances are
integer valued and exact.

Lookups are array-backed, built once per window, so that every distance
query -- scalar, elementwise or a rows x cols block -- is one broadcasting
kernel whose temporaries scale with the size of the answer:

  lattices     a dense (2W+1)^d grid of point ids (-1 outside the window)
               serves index_of and index_many; 4 bytes per grid cell;
  heisenberg3  a dense int32 box of point ids over |a|, |b| <= W,
               |c| <= floor(W^2/4) (-1 beyond distance W) serves index_of;
               4 (2W+1)^2 (2 floor(W^2/4) + 1) bytes, 0.56 MB at W=16;
               word lengths of the radius-2W ball as a dense uint8 array over
               the box |a|, |b| <= 2W, |c| <= W^2, built on first use and
               indexed by p^-1 q; (4W+1)^2 (2W^2+1) bytes, 0.34 MB at W=10;
  tree3        no lookup: ids are breadth-first, so id + 2 spells a node's
               path (3 + its first step, then one binary digit per later
               step); parent, label, index_of and the distance are
               closed-form integer expressions in it.

The margin m marks the set of "safe" points, those at distance <= W - m from
the base.  Operations that sum over neighbourhoods declare the radius they
consume and raise MarginError instead of silently truncating at the edge.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import MarginError, PointNotInWindowError, WindowError

MAX_POINTS_DEFAULT = 200_000

# poly-vs-exponential growth verdict: flag exponential when the exponential
# fit residual beats the polynomial one by this factor
EXP_FIT_FACTOR = 2.0

# the metrics each kind supports, its default first; "interval_z" is a
# spelling of zd with dim 1 (make_window)
_METRICS = {"zd": ("l1", "linf"), "heisenberg3": ("word",), "tree3": ("graph",)}


# the dense Heisenberg construction refuses a window whose coordinate box has
# more than this many cells per allowed point (a radius-W ball fills between
# 0.18 and 0.21 of its box for W <= 20)
_HEIS_BOX_PER_POINT = 16


def _heis_box(L: int) -> tuple:
    # |a|, |b| <= L and |c| <= L^2 // 4 hold on the radius-L ball: a word with
    # m letters y^{+-1} among L letters moves c by at most m (L - m)
    C = L * L // 4
    return (2 * L + 1, 2 * L + 1, 2 * C + 1)


def _heis_ball(L: int) -> np.ndarray:
    """Word lengths of the Heisenberg elements within distance L.

    A dense array over _heis_box(L), centred on the identity, in the smallest
    unsigned dtype that holds L + 1; cells beyond distance L hold L + 1.
    Breadth-first search over flat cell ids, one vectorized step per radius.
    """
    shape = _heis_box(L)
    lengths = np.full(shape, L + 1, dtype=np.min_scalar_type(L + 1))
    flat = lengths.reshape(-1)
    sa, sb = shape[1] * shape[2], shape[2]
    front = np.array([np.ravel_multi_index((L, L, shape[2] // 2), shape)])
    flat[front] = 0
    for ell in range(1, L + 1):
        a = front // sa - L
        # right multiplication in the normal form x^a y^b z^c:
        # x^{+-1} moves a; y^{+-1} moves b and moves c by +-a
        nbrs = np.concatenate([front + sa, front - sa,
                               front + sb + a, front - sb - a])
        front = np.unique(nbrs[flat[nbrs] > ell])
        flat[front] = ell
    return lengths


class Window:
    """Finite window of a quasi-lattice.  Immutable after construction, apart
    from its memo of derived data: its arrays (coords, dist_to_base, parent,
    safe_mask, safe_points and the lookups) are read-only.

    The memo (see derived) holds results that are pure functions of the
    window: the banded operators' stencils of point pairs, one entry per
    propagation, the 32 probe supports of opalg.mu_profile and
    each point's distance to them, and the balls ufchain.random_chain draws
    tuples from, one anchor -> ball dict per radius.
    It is a dict on the window, so it lives exactly as long as the window and
    keeps no other window alive.
    Its arrays are read-only.
    """

    def __init__(self, kind: str, W: int, margin: int, metric: str,
                 dim: int | None = None, max_points: int = MAX_POINTS_DEFAULT):
        if kind not in _METRICS:
            raise WindowError(
                f"spaces.make_window: unsupported kind {kind!r} "
                f"(supported: {', '.join(_METRICS)}, interval_z)")
        if metric not in _METRICS[kind]:
            raise WindowError(
                f"spaces.make_window: {kind} metric must be one of "
                f"{_METRICS[kind]}, got {metric!r}")
        if kind == "zd" and (dim is None or dim < 1):
            raise WindowError("spaces.make_window: kind 'zd' needs dim >= 1")
        if kind != "zd" and dim is not None:
            raise WindowError(
                f"spaces.make_window: kind {kind!r} takes no dim, got {dim!r}")
        if W < 1:
            raise WindowError(f"spaces.make_window: W must be >= 1, got {W}")
        if margin < 0 or margin > W:
            raise WindowError(
                f"spaces.make_window: need 0 <= margin <= W, got margin={margin}, W={W}")
        self.kind = kind
        self.W = int(W)
        self.margin = int(margin)
        self.metric = metric
        self.dim = dim
        self._max_points = max_points
        self._grid = None         # lattices: dense point-id grid, -1 outside
        self._heis_ids = None     # heisenberg3: dense point-id box, -1 outside
        self._heis_rel = None     # heisenberg3: radius-2W lookup, built on first use
        self._memo = {}           # see derived

        if kind == "zd":
            self._build_zd()
        elif kind == "heisenberg3":
            self._build_heisenberg()
        else:
            self._build_tree()

        self.n_points = len(self.dist_to_base)
        self.safe_mask = self.dist_to_base <= self.W - self.margin
        self.safe_points = np.flatnonzero(self.safe_mask)
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False

    def derived(self, key, build):
        """The memo's entry for key, made by build() on first use."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # -- construction ----------------------------------------------------

    def _build_zd(self):
        d, W = self.dim, self.W
        if (2 * W + 1) ** d > 8 * self._max_points:
            raise WindowError(
                f"spaces.make_window: zd window W={W}, dim={d} exceeds the "
                f"memory budget of {self._max_points} points")
        axes = [np.arange(-W, W + 1)] * d
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        # meshgrid's "ij" rows are already in lexicographic order
        self.coords = np.ascontiguousarray(grid[self._zd_norm(grid) <= W],
                                           dtype=np.int64)
        if len(self.coords) > self._max_points:
            raise WindowError(
                f"spaces.make_window: window has {len(self.coords)} points, "
                f"budget is {self._max_points}")
        self._grid = np.full((2 * W + 1,) * d, -1, dtype=np.int32)
        self._grid[tuple((self.coords + W).T)] = np.arange(len(self.coords))
        # flat cell index = (coordinates + W) @ _grid_steps
        self._grid_steps = (2 * W + 1) ** np.arange(d - 1, -1, -1, dtype=np.int64)
        self.base = int(self._grid[(W,) * d])
        self._axes = tuple(np.ascontiguousarray(x) for x in self.coords.T)
        self.dist_to_base = self._zd_norm(self.coords)

    def _zd_norm(self, v):
        if self.metric == "linf":
            return np.abs(v).max(axis=-1)
        return np.abs(v).sum(axis=-1)

    def _build_heisenberg(self):
        W = self.W
        budget = (f"spaces.make_window: heisenberg3 window W={W} exceeds the "
                  f"memory budget of {self._max_points} points")
        shape = _heis_box(W)
        if np.prod(shape) > _HEIS_BOX_PER_POINT * self._max_points:
            raise WindowError(budget)
        lengths = _heis_ball(W).reshape(-1)
        cells = np.flatnonzero(lengths <= W)
        if len(cells) > self._max_points:
            raise WindowError(budget)
        # cell order is (a, b, c)-lexicographic; points sort by (length, a, b, c)
        cells = cells[np.argsort(lengths[cells], kind="stable")]
        coords = np.stack(np.unravel_index(cells, shape), axis=1) - np.array(shape) // 2
        self.coords = np.ascontiguousarray(coords, dtype=np.int64)
        ids = np.full(shape, -1, dtype=np.int32)
        ids.reshape(-1)[cells] = np.arange(len(cells))
        self._heis_ids = ids
        self.base = ids.item((W, W, shape[2] // 2))
        self.dist_to_base = lengths[cells].astype(np.int64)

    def _heis_lookup(self):
        """(table, u, v, a, b): word lengths out to radius 2W, so that p^-1 q
        is always resolvable, and per-point terms of its flat cell id."""
        if self._heis_rel is None:
            L = 2 * self.W
            table = _heis_ball(L)
            _, nb, nc = table.shape
            sa, sb = nb * nc, nc
            a, b, c = self.coords.T
            # p^-1 q = (A - a, B - b, C - c - a (B - b)) for p = (a, b, c),
            # q = (A, B, C); its cell id splits as u[q] - v[p] - a[p] b[q]
            u = (a + L) * sa + (b + L) * sb + c + nc // 2
            v = a * sa + b * sb + c - a * b
            self._heis_rel = (table.reshape(-1), u, v, a.copy(), b.copy())
        return self._heis_rel

    def _build_tree(self):
        # breadth-first ids: depth k >= 1 holds 3 * 2^(k-1) nodes from id
        # 3 * 2^(k-1) - 2 on, and a node's rank within its depth is twice its
        # parent's rank plus its last step, so id + 2 = 3 * 2^(k-1) + rank
        # reads 3 + (first step) followed by the later steps as binary digits
        W = self.W
        n = 3 * 2 ** W - 2
        if n > self._max_points:
            raise WindowError(
                f"spaces.make_window: tree3 window W={W} has {n} points, "
                f"budget is {self._max_points}")
        self.coords = None
        self.base = 0
        self.dist_to_base = np.repeat(np.arange(W + 1, dtype=np.int64),
                                      [1] + [3 << (k - 1) for k in range(1, W + 1)])
        # dropping the last digit: parent id + 2 = (id + 2) >> 1 below depth 1
        self.parent = np.maximum((np.arange(n, dtype=np.int64) - 2) >> 1, 0)
        self.parent[0] = -1

    # -- point access ------------------------------------------------------

    def label(self, i: int):
        """Coordinates of point i: int tuple for lattices, node path for trees."""
        self.check_point(i)
        if self.kind == "tree3":
            d, key = int(self.dist_to_base[i]), int(i) + 2
            if d == 0:
                return ()
            return ((key >> d - 1) - 3, *(key >> s & 1 for s in range(d - 2, -1, -1)))
        return tuple(int(x) for x in self.coords[i])

    def index_of(self, label) -> int:
        try:
            key = tuple(map(operator.index, label))
        except TypeError:         # a coordinate that is not an integer
            key = None
        W = self.W
        if key is None:
            i = -1
        elif self.kind == "tree3":
            # a path's id + 2 reads 3 + its first step, then the rest in binary
            i = -1
            if len(key) <= W and all(c in (0, 1) or c == 2 and not s
                                     for s, c in enumerate(key)):
                i = 0
                for s, c in enumerate(key):
                    i = 2 * i + 2 + int(c) if s else 1 + int(c)
        elif self._heis_ids is not None:
            C = self._heis_ids.shape[2] // 2
            if (len(key) == 3 and -W <= key[0] <= W and -W <= key[1] <= W
                    and -C <= key[2] <= C):
                i = self._heis_ids.item((key[0] + W, key[1] + W, key[2] + C))
            else:
                i = -1
        elif len(key) == self.dim and -W <= min(key) and max(key) <= W:
            i = self._grid.item(tuple([x + W for x in key]))
        else:
            i = -1
        if i < 0:
            raise PointNotInWindowError(
                f"spaces: point {label!r} is not in the {self.kind} window "
                f"(W={self.W})")
        return i

    def index_many(self, coords) -> np.ndarray:
        """Point ids of lattice coordinates, an integer array of shape (..., d);
        -1 wherever the coordinates lie outside the window.  Coordinates that
        are not integers raise PointNotInWindowError, as in index_of."""
        if self._grid is None:
            raise WindowError(
                f"spaces.index_many: needs a lattice window, not {self.kind}")
        coords = np.asarray(coords)
        if coords.dtype.kind not in "biu":
            raise PointNotInWindowError(
                f"spaces.index_many: coordinates of dtype {coords.dtype} are not "
                "integers")
        if coords.shape[-1:] != (self.dim,):
            raise PointNotInWindowError(
                f"spaces.index_many: coordinates of shape {coords.shape} do not "
                f"end in the window dimension {self.dim}")
        W = self.W
        cells = np.add(coords, W, dtype=np.int64)
        # read as unsigned, a cell index below 0 is above 2^63
        inside = (cells.view(np.uint64) <= 2 * W).all(axis=-1)
        ids = self._grid.take(cells @ self._grid_steps, mode="clip")
        return np.where(inside, ids, np.int64(-1))

    def check_point(self, i: int):
        if not (0 <= i < self.n_points):
            raise PointNotInWindowError(
                f"spaces: point id {i} out of range for window with "
                f"{self.n_points} points")

    def _check_ids(self, ids, what: str) -> np.ndarray:
        """ids as an int64 array, every one a point of the window."""
        ids = np.asarray(ids, dtype=np.int64)
        # one reduction: read as unsigned, a negative id is above 2^63
        if ids.size and ids.view(np.uint64).max() >= self.n_points:
            bad = ids[(ids < 0) | (ids >= self.n_points)].flat[0]
            raise PointNotInWindowError(
                f"spaces.{what}: point id {bad} out of range for window "
                f"with {self.n_points} points")
        return ids

    # -- metric ------------------------------------------------------------

    def _pair_dist(self, i, j) -> np.ndarray:
        """d(i, j) for broadcasting id arrays; temporaries have the shape of
        the broadcast result.  Ids are not range-checked here: a caller
        checks them first (check_point, _check_ids) unless they are points of
        the window by construction (an operator's entries, a window's own
        point lists)."""
        if self.kind == "heisenberg3":
            table, u, v, a, b = self._heis_lookup()
            return table[u[j] - v[i] - a[i] * b[j]].astype(np.int64)
        if self.kind == "tree3":
            # drop digits of id + 2 (see _build_tree) down to the shallower
            # depth m: the paths agree to depth m - bit_length(xor), and
            # share only the root when their first steps differ
            d = self.dist_to_base
            di, dj = d[i], d[j]
            m = np.minimum(di, dj)
            x = ((i + 2) >> (di - m)) ^ ((j + 2) >> (dj - m))
            return di + dj - 2 * np.maximum(m - np.frexp(x)[1], 0)
        # lattices: one coordinate axis at a time
        combine = np.add if self.metric == "l1" else np.maximum
        x, *rest = self._axes
        out = np.abs(x[i] - x[j])
        for x in rest:
            out = combine(out, np.abs(x[i] - x[j]))
        return out

    def dist(self, i: int, j: int) -> int:
        self.check_point(i)
        self.check_point(j)
        return int(self._pair_dist(i, j))

    def dist_many(self, ii, jj) -> np.ndarray:
        """Vectorized pairwise distances for parallel index arrays ii, jj."""
        ii = self._check_ids(ii, "dist_many")
        jj = self._check_ids(jj, "dist_many")
        if ii.shape != jj.shape:
            raise WindowError(
                f"spaces.dist_many: index arrays of shapes {ii.shape} and "
                f"{jj.shape} are not parallel")
        return self._pair_dist(ii, jj)

    def dist_cross(self, rows, cols) -> np.ndarray:
        """Distance block D[a, b] = d(rows[a], cols[b])."""
        rows = self._check_ids(rows, "dist_cross")
        cols = self._check_ids(cols, "dist_cross")
        return self._pair_dist(rows[:, None], cols)

    def tuple_length(self, tup) -> int:
        """Max pairwise distance within a point tuple (0 for singletons)."""
        return int(self.tuple_lengths([tup])[0])

    def tuple_lengths(self, tuples: np.ndarray) -> np.ndarray:
        """Vectorized tuple_length over an (S, m) index array."""
        tuples = self._check_ids(tuples, "tuple_lengths")
        S, m = tuples.shape
        out = np.zeros(S, dtype=np.int64)
        for a in range(m):
            for b in range(a + 1, m):
                np.maximum(out, self._pair_dist(tuples[:, a], tuples[:, b]),
                           out=out)
        return out

    # -- margin discipline ---------------------------------------------------

    def require_margin(self, radius: int, what: str):
        if radius > self.margin:
            raise MarginError(
                f"{what} requires margin >= {radius}, but the window "
                f"(kind={self.kind}, W={self.W}) declares margin={self.margin}")

    def check_tuple_safe(self, tup, what: str):
        for p in tup:
            if not self.safe_mask[p]:
                raise MarginError(
                    f"{what}: tuple {tuple(int(x) for x in tup)} contains point "
                    f"{self.label(int(p))} at distance {int(self.dist_to_base[p])} "
                    f"from the base, outside the safe radius "
                    f"{self.W - self.margin} (W={self.W}, margin={self.margin})")

    # -- descriptor ----------------------------------------------------------

    def descriptor(self) -> dict:
        d = {"kind": self.kind, "W": self.W, "margin": self.margin,
             "metric": self.metric}
        if self.kind == "zd":
            d["dim"] = self.dim
        return d

    def __repr__(self):
        return (f"Window(kind={self.kind!r}, W={self.W}, margin={self.margin}, "
                f"metric={self.metric!r}, points={self.n_points})")


def make_window(kind: str, W: int, margin: int = 0, metric: str | None = None,
                dim: int | None = None,
                max_points: int = MAX_POINTS_DEFAULT) -> Window:
    """Build a window; see Window.  Metric defaults: l1 / word / graph.  Kind
    "interval_z" is zd with dim 1 and metric l1; another dim or metric for it
    is a WindowError."""
    if kind == "interval_z":
        if dim not in (None, 1) or metric not in (None, "l1"):
            raise WindowError(
                f"spaces.make_window: interval_z is zd with dim 1 and metric l1, "
                f"got dim={dim!r}, metric={metric!r}")
        kind, dim = "zd", 1
    if metric is None:
        metric = _METRICS.get(kind, (None,))[0]
    return Window(kind, W, margin, metric, dim=dim, max_points=max_points)


def window_from_descriptor(d: dict) -> Window:
    return make_window(d["kind"], d["W"], d.get("margin", 0),
                       d.get("metric"), dim=d.get("dim"))


# -- measurements -------------------------------------------------------------

def ball_volume(w: Window, center: int, R: int) -> int:
    """Exact cardinality of the radius-R ball, which must fit in the window."""
    w.check_point(center)
    reach = int(w.dist_to_base[center]) + R
    if reach > w.W:
        raise MarginError(
            f"spaces.ball_volume: ball of radius {R} around point "
            f"{w.label(center)} reaches distance {reach} > W={w.W}; "
            f"the center is only safe for radius {w.W - int(w.dist_to_base[center])}")
    if center == w.base:
        return int(np.count_nonzero(w.dist_to_base <= R))
    d = w.dist_cross([center], np.arange(w.n_points))[0]
    return int(np.count_nonzero(d <= R))


@dataclass
class GrowthFit:
    """Power-law envelope vol B_R <= D * R^M with fit diagnostics."""
    D: float
    M: float
    residual: float
    exponential_flag: bool
    volumes: np.ndarray = field(repr=False, default=None)


def fit_growth(w: Window) -> GrowthFit:
    """Fit the volume growth of balls around the base point.

    The exponent comes from a log-log least-squares fit over the upper half of
    the measured radii (small radii are polluted by lower-order terms); the
    coefficient D is then inflated so vol B_R <= D * R^M holds pointwise for
    every measured R >= 1.  An exponential fit is run over the same range and
    the exponential_flag is set when its residual wins by EXP_FIT_FACTOR.
    """
    if w.W < 4:
        raise WindowError("spaces.fit_growth: window radius must be >= 4")
    if w.n_points < 2:
        raise WindowError("spaces.fit_growth: degenerate single-point window")
    R = np.arange(1, w.W + 1, dtype=float)
    vol = np.array([np.count_nonzero(w.dist_to_base <= r) for r in range(1, w.W + 1)],
                   dtype=float)
    lo = max(1, w.W // 2)
    sel = R >= lo
    logR, logV = np.log(R[sel]), np.log(vol[sel])
    A = np.vstack([np.ones_like(logR), logR]).T
    (logD, M), *_ = np.linalg.lstsq(A, logV, rcond=None)
    poly_res = float(np.sqrt(np.mean((logV - A @ [logD, M]) ** 2)))
    B = np.vstack([np.ones_like(logR), R[sel]]).T
    coef_exp, *_ = np.linalg.lstsq(B, logV, rcond=None)
    exp_res = float(np.sqrt(np.mean((logV - B @ coef_exp) ** 2)))
    # inflate D until the bound holds on every measured radius
    D = max(float(np.exp(logD)), float(np.max(vol / R ** M)))
    return GrowthFit(D=D, M=float(M), residual=poly_res,
                     exponential_flag=exp_res * EXP_FIT_FACTOR < poly_res,
                     volumes=vol)


def quasi_lattice_check(w: Window, subset) -> tuple[float, dict]:
    """Certify the two quasi-lattice conditions of a subset on the window.

    Returns (c, K_table): c is the max over margin-safe window points of the
    distance to the subset; K_table[r] is the max over subset points of the
    number of subset points within distance r, for r = 1..W.
    """
    subset = np.asarray(subset, dtype=np.int64)
    if len(subset) == 0:
        raise WindowError("spaces.quasi_lattice_check: empty subset")
    for p in subset:
        w.check_point(int(p))
    D = w.dist_cross(subset, w.safe_points)
    c = float(D.min(axis=0).max()) if D.size else 0.0
    Dss = w.dist_cross(subset, subset)
    K_table = {}
    for r in range(1, w.W + 1):
        K_table[r] = int((Dss <= r).sum(axis=1).max())
    return c, K_table
