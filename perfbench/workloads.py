"""The four benchmark workloads: fixtures, item kinds and their correctness gates.

An item is one verified instance: it calls coarselab's public functions to
generate its inputs from the item seed, runs the computation, and returns True
only when the result passes its check.  A workload is a fixed *pass*, an
ordered list of (kind, parameters) entries; the seed changes only the
generator seeds of the items, never the pass.

The character and decay passes keep the proportions of the suite's own checks
(suite.check_chain_map and check_cyclic_invariance 200:200:200:200 and
100:100:20, scaled down 20x, plus one fiber-2 tensor of each degree;
check_product_estimate, check_power_estimate and check_neumann 100:50:50x3).
The suite gives no single mix for the exact and nonlattice checks; their
passes are weighted so that the item-time median and 90th percentile fall
inside one kind's block of the sorted item times rather than on the boundary
between two kinds of very different cost, where a quantile would jump between
the two kinds from run to run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from coarselab import cochain, cyclic, fill, opalg, spaces, ufchain
from coarselab import suite

RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class Entry:
    """One slot of a pass: a kind name and the check that runs it."""
    kind: str
    run: object          # callable(fixture, seed_tuple) -> bool


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object        # callable(seed) -> fixture
    entries: tuple       # the pass
    trace_passes: int    # the traced run's fixed list: a few seconds of work
    prime: tuple = ()    # entries run once, untimed, after the set-ups


def interleave(mix):
    """Spread (entry, count) pairs evenly over one pass, deterministically."""
    slots = sorted(((i + 0.5) / n, order, entry)
                   for order, (entry, n) in enumerate(mix) for i in range(n))
    return tuple(entry for _, _, entry in slots)


def int_seed(seed_tuple) -> int:
    """A 63-bit integer seed for functions that take an int, from a tuple seed."""
    return int(np.random.SeedSequence(list(seed_tuple)).generate_state(1, np.uint64)[0]
               >> np.uint64(1))


# -- character: operator generation and the character pipeline -------------------

def _chain_map_item(fx, s, *, win, degree, fiber=1):
    w = getattr(fx, win)
    ops = tuple(opalg.random_banded(w, tuple(s) + (j,), prop=2, decay=0.7,
                                    density=0.3, fiber=fiber)
                for j in range(degree + 1))
    return cyclic.chain_map_check(cyclic.CyclicTensor(degree, [(1.0, ops)])) < RESIDUAL_TOL


def _cyclic_item(fx, s, *, win, degree):
    w = getattr(fx, win)
    ops = tuple(opalg.random_banded(w, tuple(s) + (j,), prop=2, density=0.4,
                                    integer=True)
                for j in range(degree + 1))
    t = cyclic.CyclicTensor(degree, [(1.0, ops)])
    return cyclic.chi(t).support == cyclic.chi(cyclic.lambda_op(t)).support


def _build_character(seed):
    return SimpleNamespace(z1=spaces.make_window("zd", 32, 12, dim=1),
                           z2=spaces.make_window("zd", 32, 12, dim=2),
                           z1small=spaces.make_window("zd", 12, 8, dim=1))


def _e(kind, fn, **params):
    return Entry(kind, functools.partial(fn, **params))


CHARACTER = Workload(
    name="character",
    why="random banded tensors through the chain-map and cyclic-invariance checks: "
        "operator generation and the character pipeline, no norms",
    build=_build_character,
    entries=interleave([
        (_e("chain_map.d1.zd1", _chain_map_item, win="z1", degree=1), 10),
        (_e("chain_map.d2.zd1", _chain_map_item, win="z1", degree=2), 10),
        (_e("chain_map.d1.zd2", _chain_map_item, win="z2", degree=1), 10),
        (_e("chain_map.d2.zd2", _chain_map_item, win="z2", degree=2), 10),
        (_e("cyclic.d1.zd1", _cyclic_item, win="z1", degree=1), 5),
        (_e("cyclic.d2.zd1", _cyclic_item, win="z1", degree=2), 5),
        (_e("cyclic.d3.zd1", _cyclic_item, win="z1small", degree=3), 1),
        (_e("chain_map.d1.zd1.fiber2", _chain_map_item, win="z1", degree=1, fiber=2), 1),
        (_e("chain_map.d2.zd1.fiber2", _chain_map_item, win="z1", degree=2, fiber=2), 1),
    ]),
    trace_passes=2,
)


# -- decay: dominating-function estimates (the norm layer) ------------------------

def _product_item(fx, s):
    A = opalg.random_banded(fx.w, tuple(s) + (0,), prop=3, decay=0.6)
    B = opalg.random_banded(fx.w, tuple(s) + (1,), prop=3, decay=0.6)
    return opalg.check_product_estimate(A, B, 16).passed


def _power_item(fx, s):
    A = opalg.random_banded(fx.w, s, prop=2, decay=0.5)
    A = A.scale(0.95 / max(opalg.op_norm(A), 1e-12))
    return opalg.check_power_estimate(A, 4, 16).passed


def _neumann_item(fx, s, *, n):
    B = opalg.random_banded(fx.w, s, prop=2, decay=0.5)
    B = B.scale(0.8 / (2 ** (n + 1) * 5) / max(opalg.op_norm(B), 1e-12))
    return opalg.neumann_inverse(B, n)[1].passed


DECAY = Workload(
    name="decay",
    why="product, power and Neumann estimates on a 65-point 1-D window: "
        "op_norm and mu_profile, no character pipeline",
    build=lambda seed: SimpleNamespace(w=spaces.make_window("zd", 32, 16, dim=1)),
    entries=interleave([
        (_e("product", _product_item), 2),
        (_e("power", _power_item), 1),
        (_e("neumann.n1", _neumann_item, n=1), 1),
        (_e("neumann.n2", _neumann_item, n=2), 1),
        (_e("neumann.n3", _neumann_item, n=3), 1),
    ]),
    trace_passes=6,
)


# -- exact: exact identities, chain generation and the filler ----------------------

def _boundary_item(fx, s, *, win, q):
    w = fx.mixed[win]
    c = ufchain.random_chain(w, q, n_terms=6, max_len=4, seed=s, coeff="int")
    bc = ufchain.boundary(c)
    if q == 1:
        # degree-0 boundaries have vanishing augmentation
        return sum(v for _, v in bc.terms()) == 0
    return len(ufchain.boundary(bc)) == 0


def _random_table(rng, pts, q, count):
    return cochain.Table(q, {tuple(int(pts[rng.integers(len(pts))]) for _ in range(q + 1)):
                             int(rng.integers(-5, 6)) for _ in range(count)})


def _coboundary_item(fx, s, *, win, q):
    w = fx.mixed[win]
    rng = np.random.default_rng(s)
    pts = w.safe_points
    phi = _random_table(rng, pts, q, 5)
    tup = tuple(int(pts[rng.integers(len(pts))]) for _ in range(q + 3))
    return all(cochain.evaluate(cochain.coboundary(cochain.coboundary(phi, conv), conv),
                                w, tup) == 0
               for conv in cochain.CONVENTIONS)


def _adjointness_item(fx, s, *, win, q):
    w = fx.mixed[win]
    rng = np.random.default_rng(s)
    phi = _random_table(rng, w.safe_points, q, 6)
    safe_r = w.margin + 3

    def chain(degree, terms):
        return ufchain.random_chain(w, degree, n_terms=terms, max_len=3,
                                    seed=int(rng.integers(2 ** 31)), coeff="int",
                                    safe_radius=safe_r)

    c = chain(q + 1, 6)
    dphi = cochain.coboundary(phi)
    adjoint = cochain.pair(dphi, c) == cochain.pair(phi, ufchain.boundary(c))
    b, c2 = chain(q + 2, 4), chain(q + 1, 5)
    descent = cochain.pair(dphi, c2 + ufchain.boundary(b)) == cochain.pair(dphi, c2)
    return adjoint and descent


def _unit_chain(w, q, rng):
    """Random integer chain of unit Kuhn simplices anchored at safe points."""
    s = fill.SimplicialChain(w, q)
    pts = w.safe_points
    for _ in range(5):
        c = w.label(int(pts[rng.integers(len(pts))]))
        if w.dim == 1:
            cells = [(c,), (c, (c[0] + 1,))]
        else:
            x, y = c
            cells = [(c,), (c, (x + 1, y)), (c, (x, y + 1)), (c, (x + 1, y + 1)),
                     (c, (x + 1, y), (x + 1, y + 1)), (c, (x, y + 1), (x + 1, y + 1))]
        cells = [cell for cell in cells if len(cell) == q + 1]
        cell = cells[rng.integers(len(cells))]
        s.add_simplex(tuple(w.index_of(p) for p in cell), int(rng.integers(1, 4)))
    return s


FILL_WINDOWS = ((20, 4, 1), (14, 4, 2))     # (W, margin, dim)


def _fill_item(fx, s, *, win, q):
    # a fresh window starts the filler's cache empty, so that the item's cost
    # does not depend on how many items ran before it
    W, margin, dim = FILL_WINDOWS[win]
    w = spaces.make_window("zd", W, margin, dim=dim)
    rng = np.random.default_rng(s)
    c = ufchain.random_chain(w, q, n_terms=4, max_len=4, seed=int(rng.integers(2 ** 31)),
                             coeff="int", safe_radius=min(w.margin + 8, w.W - 1))
    chain_map = fill.simplicial_boundary(fill.fill_chain(c)) == fill.fill_chain(
        ufchain.boundary(c))
    return chain_map and fill.roundtrip_identity(_unit_chain(w, min(q, w.dim), rng))


def _crucial_item(fx, s, *, q):
    c = ufchain.random_chain(fx.crucial, q, n_terms=5, max_len=4, seed=s, safe_radius=9)
    return fill.verify_crucial_estimate(c, fx.growth, fx.profiles[q]).passed


SWEEP_TERMS = 40


def _sweep_item(fx, s, *, W):
    w = fx.sweep[W]

    def sampler(trial_seed):
        return ufchain.random_chain(w, 1, n_terms=SWEEP_TERMS, max_len=6, seed=trial_seed,
                                    coeff="complex", safe_radius=7)

    res = cochain.continuity_sweep(cochain.Jump(0, 0), sampler, n=3, trials=1,
                                   seed=int_seed(s))
    # |jump| <= 1 and vanishes on length-0 tuples, so each contributing term
    # is at most the chain's (inf, 3)-norm: the ratio is at most the term count
    return len(res.rows) + res.trivial == 1 and res.max_ratio <= SWEEP_TERMS


def _envelope_holds(fit):
    R = np.arange(1, len(fit.volumes) + 1, dtype=float)
    return bool(np.all(fit.volumes <= fit.D * R ** fit.M * (1 + 1e-12)))


def _growth_item(fx, s, *, which):
    f = spaces.fit_growth(fx.growthwin[which])
    verdict = {"zd1": abs(f.M - 1) <= 0.2 and not f.exponential_flag,
               "zd2": abs(f.M - 2) <= 0.2 and not f.exponential_flag,
               "heisenberg": 3.2 <= f.M <= 4.8,
               "tree": f.exponential_flag}[which]
    return verdict and _envelope_holds(f)


def _winding_item(fx, s, *, k):
    rep = suite.demo_winding(k, 28, 20)
    return rep.oracle_index == -k and abs(rep.pairing_stripped + k) < RESIDUAL_TOL * k


def _tree_demo_item(fx, s):
    rep = suite.demo_tree_fundamental_class(6)
    return rep.tree_exact and rep.tree_max_coeff <= 1


def _build_exact(seed):
    crucial = spaces.make_window("zd", 24, 4, dim=2)
    return SimpleNamespace(
        mixed=(spaces.make_window("zd", 16, 4, dim=1), spaces.make_window("zd", 10, 3, dim=2)),
        crucial=crucial,
        growth=spaces.fit_growth(crucial),
        profiles={q: fill.contractibility_profile(crucial, q, samples=50, rmax=8,
                                                  seed=int_seed((seed, q)))
                  for q in (1, 2)},
        sweep={W: spaces.make_window("zd", W, 4, dim=1) for W in (16, 24, 32)},
        growthwin={"zd1": spaces.make_window("zd", 16, 0, dim=1),
                   "zd2": spaces.make_window("zd", 16, 0, dim=2),
                   "heisenberg": spaces.make_window("heisenberg3", 16, 0),
                   "tree": spaces.make_window("tree3", 7, 0)})


EXACT = Workload(
    name="exact",
    why="exact boundary, pairing and filler identities, filling estimate, sweep, growth "
        "fits, index demos: chain generation and filling; norms only in one small demo",
    build=_build_exact,
    entries=interleave([
        (_e("boundary.q1.zd1", _boundary_item, win=0, q=1), 1),
        (_e("boundary.q2.zd2", _boundary_item, win=1, q=2), 1),
        (_e("boundary.q3.zd1", _boundary_item, win=0, q=3), 1),
        (_e("coboundary.q0.zd2", _coboundary_item, win=1, q=0), 1),
        (_e("coboundary.q1.zd1", _coboundary_item, win=0, q=1), 1),
        (_e("coboundary.q2.zd2", _coboundary_item, win=1, q=2), 1),
        (_e("adjointness.q0.zd1", _adjointness_item, win=0, q=0), 1),
        (_e("adjointness.q1.zd2", _adjointness_item, win=1, q=1), 1),
        (_e("growth.zd1", _growth_item, which="zd1"), 1),
        (_e("growth.zd2", _growth_item, which="zd2"), 1),
        (_e("growth.heisenberg", _growth_item, which="heisenberg"), 1),
        (_e("growth.tree", _growth_item, which="tree"), 1),
        (_e("fill.q1.zd1", _fill_item, win=0, q=1), 1),
        (_e("sweep.W16", _sweep_item, W=16), 4),
        (_e("sweep.W24", _sweep_item, W=24), 4),
        (_e("sweep.W32", _sweep_item, W=32), 4),
        (_e("crucial.q1", _crucial_item, q=1), 1),
        (_e("crucial.q2", _crucial_item, q=2), 1),
        (_e("tree_demo", _tree_demo_item), 3),
        (_e("fill.q2.zd2", _fill_item, win=1, q=2), 5),
        (_e("winding.k2", _winding_item, k=2), 1),
    ]),
    trace_passes=50,
)


# -- nonlattice: the same layers on Heisenberg and tree windows ---------------------

def _mu_item(fx, s, *, win, prop, rmax):
    A = opalg.random_banded(getattr(fx, win), s, prop=prop, decay=0.6)
    p = opalg.mu_profile(A, rmax)
    # The norm of A's entries beyond R lies between its largest column norm,
    # which p.lower must reach, and its Frobenius norm, which p.lower must not
    # pass; both computed here from the entries and their distances.  The
    # sandwich p.lower <= p.upper itself is counted in uncertified_frac.
    _, col, dist = A.entry_point_pairs()
    mass = np.abs(A.mat.tocoo().data) ** 2
    for R in range(rmax + 1):
        beyond = dist > R
        col_norm = np.sqrt(np.bincount(col[beyond], weights=mass[beyond]).max(initial=0.0))
        frobenius = np.sqrt(mass[beyond].sum())
        if not col_norm * (1 - 1e-12) <= p.lower[R] <= frobenius * (1 + 1e-12):
            return False
    return bool(p.op > 0 and np.all(np.isfinite(p.upper)))


def _nl_chain_map_item(fx, s, *, win):
    w = getattr(fx, win)
    ops = tuple(opalg.random_banded(w, tuple(s) + (j,), prop=1, decay=0.7, density=0.3)
                for j in range(2))
    return cyclic.chain_map_check(cyclic.CyclicTensor(1, [(1.0, ops)])) < RESIDUAL_TOL


def _quasi_lattice_item(fx, s, *, win):
    # a word-length parity class of the safe points: every other safe point
    # is adjacent to it (c = 1) and no two members are adjacent (K(1) = 1)
    w = getattr(fx, win)
    parity = int(np.random.default_rng(s).integers(2))
    safe = w.safe_points
    c, K = spaces.quasi_lattice_check(w, safe[w.dist_to_base[safe] % 2 == parity])
    table = [K[r] for r in sorted(K)]
    return c == 1.0 and K[1] == 1 and table == sorted(table)


def _ball_item(fx, s, *, win):
    w = getattr(fx, win)
    center = int(w.safe_points[np.random.default_rng(s).integers(len(w.safe_points))])
    R = w.W - int(w.dist_to_base[center])
    vol = spaces.ball_volume(w, center, R)
    if w.kind == "tree3":
        return vol == 1 + 3 * (2 ** R - 1)
    # left translation is an isometry of the word metric
    return vol == int(np.count_nonzero(w.dist_to_base <= R))


def _nl_growth_item(fx, s, *, win):
    f = spaces.fit_growth(getattr(fx, win))
    if win == "tree":
        R = np.arange(1, len(f.volumes) + 1)
        return f.exponential_flag and np.array_equal(f.volumes, 1 + 3 * (2 ** R - 1))
    # the exponent bound of the exact workload's 16-radius fit (this 6-radius
    # window fits M = 3.48)
    return 3.2 <= f.M <= 4.8 and not f.exponential_flag


def _nl_chain_item(fx, s, *, win):
    c = ufchain.random_chain(getattr(fx, win), 2, n_terms=6, max_len=3, seed=s,
                             coeff="int")
    return len(ufchain.boundary(ufchain.boundary(c))) == 0


def _squaring_item(fx, s):
    # A fixed operator on which plain power iteration stalls, so op_norm takes
    # its dense squaring fallback, as about 1 in 60 of the Heisenberg profiles'
    # norms does.  That path holds three more 593x593 matrices; running it
    # once in every run keeps peak_rss_mb from depending on whether a run
    # happens to draw such an operator.
    # The check stays sparse, so its own memory does not set the peak: the norm
    # lies between the largest column norm and sqrt(||A||_1 ||A||_inf).
    A = opalg.random_banded(fx.heis, (611, 72, 3), prop=1, decay=0.6)
    op = opalg.op_norm(A)
    absA = abs(A.mat)
    col_norm = np.sqrt(absA.multiply(absA).sum(axis=0).max())
    holder = np.sqrt(absA.sum(axis=0).max() * absA.sum(axis=1).max())
    return col_norm * (1 - 1e-12) <= op <= holder * (1 + 1e-12)


NONLATTICE = Workload(
    name="nonlattice",
    why="operators, profiles, chain maps and geometry on a 593-point Heisenberg "
        "and a 766-point tree window: Python-loop distances, sparse norms",
    build=lambda seed: SimpleNamespace(heis=spaces.make_window("heisenberg3", 6, 4),
                                       tree=spaces.make_window("tree3", 8, 5)),
    entries=interleave([
        (_e("mu_profile.heisenberg", _mu_item, win="heis", prop=1, rmax=2), 3),
        (_e("mu_profile.tree", _mu_item, win="tree", prop=2, rmax=3), 1),
        (_e("chain_map.heisenberg", _nl_chain_map_item, win="heis"), 4),
        (_e("chain_map.tree", _nl_chain_map_item, win="tree"), 2),
        (_e("chain.heisenberg", _nl_chain_item, win="heis"), 2),
        (_e("chain.tree", _nl_chain_item, win="tree"), 2),
        (_e("quasi_lattice.heisenberg", _quasi_lattice_item, win="heis"), 1),
        (_e("quasi_lattice.tree", _quasi_lattice_item, win="tree"), 1),
        (_e("ball_volume.heisenberg", _ball_item, win="heis"), 1),
        (_e("ball_volume.tree", _ball_item, win="tree"), 1),
        (_e("fit_growth.heisenberg", _nl_growth_item, win="heis"), 1),
        (_e("fit_growth.tree", _nl_growth_item, win="tree"), 1),
    ]),
    trace_passes=3,
    prime=(_e("op_norm.heisenberg.squaring", _squaring_item),),
)


WORKLOADS = {w.name: w for w in (CHARACTER, DECAY, EXACT, NONLATTICE)}
