"""Index demos and the acceptance suite behind the command-line front end.

Every check returns a CheckResult whose `details` carry the measured
constants and residuals; a reported pass always corresponds to an inequality
evaluated in the sound (certified-lower against certified-upper) direction or
to an exact identity.  The checks take no arguments: their sizes are fixed
and their random streams all derive from SEED.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction

import numpy as np

from . import cochain, cyclic, fill, opalg, spaces, ufchain
from .errors import CoarselabError, MarginError, PreconditionError

SEED = 7


@dataclass
class CheckResult:
    name: str
    passed: bool
    elapsed: float
    details: dict

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        keys = ", ".join(f"{k}={v}" for k, v in self.details.items()
                         if not isinstance(v, (list, dict)))
        return f"[{status}] {self.name} ({self.elapsed:.2f}s) {keys}"


@dataclass
class RunReport:
    command: str
    checks: list = field(default_factory=list)
    wall_clock: float = 0.0

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def as_dict(self):
        return {"command": self.command, "wall_clock": self.wall_clock,
                "passed": self.passed, "checks": plain(self.checks)}


def plain(obj):
    """JSON-ready copy: dataclasses become dicts of their fields, complex
    numbers {"re", "im"} pairs and numpy scalars Python scalars."""
    if is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _timed(name):
    """Report a check, which returns (passed, details), as the timed
    CheckResult name; run_suite reports its errors under the same name."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            t0 = time.perf_counter()
            passed, details = fn()
            return CheckResult(name, passed, time.perf_counter() - t0, details)
        wrapper.check_name = name
        return wrapper
    return decorate


# -- exact linear algebra for the index oracle -----------------------------------

def _exact_kernel_basis(M):
    """Kernel basis of an integer matrix, exact over the rationals.

    Fraction-free Gauss-Jordan elimination on rows of Python ints: a row with
    a nonzero f in the pivot column becomes p * row - f * pivot_row (p the
    pivot), divided by the gcd of its entries.  Each row stays a nonzero
    multiple of the row that Gauss-Jordan over the rationals would hold, so
    the pivots and every ratio A[pr][c] / A[pr][pc] are the same, and the
    basis vectors come out as the same Fractions."""
    m, n = M.shape
    A = M.tolist()
    pivots = {}
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        pivot_row, p = A[r], A[r][c]
        for i in range(m):
            f = A[i][c]
            if i != r and f:
                row = [p * x - f * y for x, y in zip(A[i], pivot_row)]
                g = math.gcd(*row)
                A[i] = [x // g for x in row] if g > 1 else row
        pivots[c] = r
        r += 1
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for c in range(n):
        if c in pivots:
            continue
        v = [zero] * n
        v[c] = one
        for pc, pr in pivots.items():
            if A[pr][c]:
                v[pc] = Fraction(-A[pr][c], A[pr][pc])
        basis.append(v)
    return basis


def toeplitz_index_oracle(compressed: np.ndarray, near_size: int) -> int:
    """Fredholm index extracted from a finite compression by exact ranks.

    The square compression of a half-space operator always has equal kernel
    and cokernel dimensions (edge modes at the two ends of the interval); the
    index of the half-infinite operator is the count of kernel vectors of M
    supported in the first `near_size` sites minus that count for M^T (the
    cokernel), both from the exact kernel basis.
    """
    def near(M):     # every basis vector has a nonzero entry
        return sum(max(i for i, x in enumerate(v) if x) < near_size
                   for v in _exact_kernel_basis(M))
    return near(compressed) - near(compressed.T)


# -- demos -------------------------------------------------------------------------

@dataclass
class WindingReport:
    k: int
    pairing_raw: complex
    pairing_stripped: complex
    oracle_index: int
    ratio: complex | None


def demo_winding(k: int, W: int, margin: int) -> WindingReport:
    """Pair the jump cochain against the odd character of a k-fold shift and
    compare with the exact Toeplitz index of the half-window compression."""
    if margin < 4 * abs(k) + 4:
        raise MarginError(
            f"suite.demo_winding: margin {margin} is below the required "
            f"4|k| + 4 = {4 * abs(k) + 4}")
    w = spaces.make_window("zd", W, margin, dim=1)
    u = opalg.winding_unitary(w, k)
    if k == 0:
        return WindingReport(0, 0j, 0j, 0, None)
    tensor = cyclic.chern1(u, 0)
    pairing = cyclic.character_pairing(cochain.Jump(0, 0), tensor)
    nonneg = [p for p in range(w.n_points) if w.coords[p][0] >= 0]
    nonneg.sort(key=lambda p: w.coords[p][0])
    sub = u.mat.toarray()[np.ix_(nonneg, nonneg)]
    oracle = toeplitz_index_oracle(np.real(sub).astype(np.int64),
                                   near_size=len(nonneg) // 2)
    ratio = pairing.stripped / oracle if oracle != 0 else None
    return WindingReport(k, pairing.raw, pairing.stripped, oracle, ratio)


def demo_degree0(window: spaces.Window, e: opalg.BandedOperator,
                 phi: cochain.CoarseCochain) -> complex:
    """<phi, chi(e)> = sum over points of phi(y) times the local trace of e."""
    return cyclic.character_pairing(phi, cyclic.CyclicTensor(0, [(1.0, (e,))])).raw


@dataclass
class TreeDemoReport:
    tree_exact: bool
    tree_max_coeff: float
    z_expected_fail: bool
    z_witness_coeff: float


def _tree_flow(w: spaces.Window):
    """(den * t, den) for the outward flow t on a tree window.

    Every vertex sends its inflow plus one unit, split equally, to its
    children: t(c, p) = (t(p, parent p) + 1) / kids(p), with no inflow at the
    root.  The denominator of t(c, p) divides the product of the child counts
    strictly above c, so with den the lcm of those products the integers
    num[c] = (num[p] + den) // kids[p] are exact.  They are computed level by
    level over the breadth-first depths; the chain carries num[c] on the edge
    (c, parent c)."""
    parent, depth = w.parent, w.dist_to_base
    kids = np.bincount(parent[1:], minlength=w.n_points)
    levels = [np.flatnonzero(depth == k) for k in range(1, w.W + 1)]
    above = np.ones(w.n_points, dtype=np.int64)
    for level in levels:
        above[level] = above[parent[level]] * kids[parent[level]]
    den = int(np.lcm.reduce(above))
    num = np.zeros(w.n_points, dtype=np.int64)
    for level in levels:
        num[level] = (num[parent[level]] + den) // kids[parent[level]]
    edges = np.column_stack((np.arange(1, w.n_points), parent[1:]))
    return ufchain.UfChain.from_arrays(w, 1, edges, num[1:]), den


def demo_tree_fundamental_class(W: int) -> TreeDemoReport:
    """Bound the 0-cycle of all vertices on the 3-regular tree window.

    Routes one unit of flow from every vertex toward infinity (away from the
    root), splitting equally over children (``_tree_flow``).  The resulting
    1-chain has exact rational coefficients, largest 1 - 1/(3 * 2^(W-2)) at
    the leaves.  Its boundary is +1 at every vertex that has children and
    -(inflow) at each of the 3 * 2^(W-1) leaves at depth W; the window's
    margin is 1, so the margin-safe vertices are exactly the ones with
    children, and tree_exact records that the boundary is +1 at each of them
    (the leaves are not checked).  The analogous rightward routing on an
    integer interval is the expected-fail witness: its boundary is checked
    exactly to be the safe vertices minus their count at the sink, and its
    largest coefficient, measured on the chain, is the number of safe
    vertices, so it grows linearly with the window radius; z_expected_fail
    records that the boundary is exact and the coefficient is at least W.
    """
    if W < 4:
        raise PreconditionError("suite.demo_tree_fundamental_class: needs W >= 4")
    w = spaces.make_window("tree3", W, 1)
    t, den = _tree_flow(w)
    bt = ufchain.boundary(t)
    at = np.zeros(w.n_points, dtype=bt.values.dtype)
    at[bt.tuples[:, 0]] = bt.values
    ok = bool((at[w.safe_points] == den).all())
    max_coeff = float(Fraction(int(t.values.max()), den))

    # the expected-fail witness: every safe vertex of the interval routes one
    # unit rightward to the sink W; the edge (x + 1, x) carries the flow of
    # the safe vertices at or left of x, and nearest-neighbour chains with
    # this boundary are unique, so the coefficient is forced
    wz = spaces.make_window("zd", W, 1, dim=1)
    sink = wz.index_of((W,))
    z_terms = {}
    flow = 0
    for x in range(-W, W):
        p = wz.index_of((x,))
        flow += int(wz.safe_mask[p])
        if flow:
            z_terms[(wz.index_of((x + 1,)), p)] = flow
    safe_sum = ufchain.UfChain(wz, 0, [((p,), 1) for p in wz.safe_points]
                               + [((sink,), -len(wz.safe_points))])
    z_exact = ufchain.boundary(ufchain.UfChain(wz, 1, z_terms)) == safe_sum
    zmax = max(z_terms.values(), default=0)
    return TreeDemoReport(tree_exact=ok, tree_max_coeff=max_coeff,
                          z_expected_fail=z_exact and zmax >= W,
                          z_witness_coeff=float(zmax))


# -- acceptance checks --------------------------------------------------------------

def _mixed_windows():
    return [spaces.make_window("zd", 16, 4, dim=1),
            spaces.make_window("zd", 10, 3, dim=2)]


@_timed("boundary_identities")
def check_boundary_identities() -> tuple:
    rng = np.random.default_rng(SEED)
    windows = _mixed_windows()
    n = 500
    chains_ok = True
    for q in (1, 2, 3):
        for i in range(n):
            w = windows[i % len(windows)]
            c = ufchain.random_chain(w, q, n_terms=6, max_len=4,
                                     seed=int(rng.integers(2 ** 31)), coeff="int")
            bc = ufchain.boundary(c)
            if q == 1:
                # the boundary map on degree 0 is zero; its image must have
                # vanishing augmentation
                if bc.values.sum() != 0:
                    chains_ok = False
            elif len(ufchain.boundary(bc)) != 0:
                chains_ok = False
    cob_ok = {"full": True, "from1": True}
    for q in (0, 1, 2):
        for i in range(n):
            w = windows[i % len(windows)]
            pts = w.safe_points
            tbl = {tuple(int(pts[rng.integers(len(pts))]) for _ in range(q + 1)):
                   int(rng.integers(-5, 6)) for _ in range(5)}
            phi = cochain.Table(q, tbl)
            tup = tuple(int(pts[rng.integers(len(pts))]) for _ in range(q + 3))
            for conv in ("full", "from1"):
                dd = cochain.coboundary(cochain.coboundary(phi, conv), conv)
                if cochain.evaluate(dd, w, tup) != 0:
                    cob_ok[conv] = False
    passed = chains_ok and all(cob_ok.values())
    return (passed,
            {"chains_exact": chains_ok, "coboundary_full": cob_ok["full"],
             "coboundary_from1": cob_ok["from1"], "instances": n})


@_timed("pairing_adjointness")
def check_pairing_adjointness() -> tuple:
    rng = np.random.default_rng(SEED + 1)
    windows = _mixed_windows()
    n = 200
    adj_ok = True
    descent_ok = True
    for i in range(n):
        w = windows[i % len(windows)]
        q = int(rng.integers(0, 3))
        pts = w.safe_points
        tbl = {tuple(int(pts[rng.integers(len(pts))]) for _ in range(q + 1)):
               int(rng.integers(-5, 6)) for _ in range(6)}
        phi = cochain.Table(q, tbl)
        safe_r = w.margin + 3
        c = ufchain.random_chain(w, q + 1, n_terms=6, max_len=3,
                                 seed=int(rng.integers(2 ** 31)), coeff="int",
                                 safe_radius=safe_r)
        lhs = cochain.pair(cochain.coboundary(phi), c)
        rhs = cochain.pair(phi, ufchain.boundary(c))
        if lhs != rhs:
            adj_ok = False
        closed = cochain.coboundary(phi)
        b = ufchain.random_chain(w, q + 2, n_terms=4, max_len=3,
                                 seed=int(rng.integers(2 ** 31)), coeff="int",
                                 safe_radius=safe_r)
        c2 = ufchain.random_chain(w, q + 1, n_terms=5, max_len=3,
                                  seed=int(rng.integers(2 ** 31)), coeff="int",
                                  safe_radius=safe_r)
        with_b = cochain.pair(closed, c2 + ufchain.boundary(b))
        without = cochain.pair(closed, c2)
        if with_b != without:
            descent_ok = False
    return (adj_ok and descent_ok,
            {"adjoint_exact": adj_ok, "descent_exact": descent_ok,
             "instances": n})


@_timed("chain_map_identity")
def check_chain_map() -> tuple:
    seed = SEED + 2
    worst = 0.0
    windows = [spaces.make_window("zd", 32, 12, dim=1),
               spaces.make_window("zd", 32, 12, dim=2)]
    count = 0
    for w in windows:
        for degree in (1, 2):
            for _ in range(200):
                ops = tuple(
                    opalg.random_banded(w, (seed, count, j), prop=2,
                                        decay=0.7, density=0.3)
                    for j in range(degree + 1))
                t = cyclic.CyclicTensor(degree, [(1.0, ops)])
                worst = max(worst, cyclic.chain_map_check(t))
                count += 1
    return worst < 1e-9, {"max_residual": worst, "tensors": count}


@_timed("cyclic_invariance")
def check_cyclic_invariance() -> tuple:
    seed = SEED + 3
    w = spaces.make_window("zd", 32, 12, dim=1)
    wsmall = spaces.make_window("zd", 12, 8, dim=1)
    exact = True
    tested = 0
    for degree, window, count in ((1, w, 100), (2, w, 100), (3, wsmall, 20)):
        for i in range(count):
            ops = tuple(opalg.random_banded(window, (seed, degree, i, j),
                                            prop=2, density=0.4, integer=True)
                        for j in range(degree + 1))
            t = cyclic.CyclicTensor(degree, [(1.0, ops)])
            # chi expands the canonical rows injectively, values times +-1
            t1, v1 = cyclic.chi_arrays(t)
            t2, v2 = cyclic.chi_arrays(cyclic.lambda_op(t))
            if not (np.array_equal(t1, t2) and np.array_equal(v1, v2)):
                exact = False
            tested += 1
    return exact, {"tensors": tested, "exact": exact}


@_timed("product_estimate")
def check_product_estimate() -> tuple:
    pairs = 100
    seed = SEED + 4
    w = spaces.make_window("zd", 32, 16, dim=1)
    all_ok = True
    worst_gap = np.inf
    ratio = 0.0
    for i in range(pairs):
        A = opalg.random_banded(w, (seed, i, 0), prop=3, decay=0.6)
        B = opalg.random_banded(w, (seed, i, 1), prop=3, decay=0.6)
        tab = opalg.check_product_estimate(A, B, 16)
        if not tab.passed:
            all_ok = False
        for r in tab.rows:
            if r.rhs > 0:
                worst_gap = min(worst_gap, r.rhs - r.lhs)
                ratio = max(ratio, r.lhs / r.rhs)
    return (all_ok,
            {"pairs": pairs, "min_slack": worst_gap, "max_lhs_over_rhs": ratio})


@_timed("power_estimate")
def check_power_estimate() -> tuple:
    n_ops = 50
    seed = SEED + 5
    w = spaces.make_window("zd", 32, 16, dim=1)
    all_ok = True
    ratio = 0.0
    for i in range(n_ops):
        A = opalg.random_banded(w, (seed, i), prop=2, decay=0.5)
        A = A.scale(0.95 / max(opalg.op_norm(A), 1e-12))
        table = opalg.check_power_estimate(A, 4, 16)
        if not table.passed:
            all_ok = False
        ratio = max([ratio] + [r.lhs / r.rhs for r in table.rows if r.rhs > 0])
    return all_ok, {"operators": n_ops, "nmax": 4, "max_lhs_over_rhs": ratio}


@_timed("neumann_inverse_bound")
def check_neumann() -> tuple:
    n_ops = 50
    seed = SEED + 6
    w = spaces.make_window("zd", 32, 16, dim=1)
    all_ok = True
    worst = 0.0
    ratio = 0.0
    shells = 0.0
    for n in (1, 2, 3):
        for i in range(n_ops):
            B = opalg.random_banded(w, (seed, n, i), prop=2, decay=0.5)
            target = 0.8 / (2 ** (n + 1) * 5)
            B = B.scale(target / max(opalg.op_norm(B), 1e-12))
            _, rep = opalg.neumann_inverse(B, n)
            if not rep.passed:
                all_ok = False
            worst = max(worst, rep.measured - rep.bound)
            ratio = max(ratio, rep.measured / rep.bound)
            shells = max(shells, rep.shell_ratio_upper)
    return (all_ok,
            {"operators_per_n": n_ops, "max_excess": worst,
             "max_lhs_over_rhs": ratio, "max_shell_ratio_upper": shells})


@_timed("fill_chain_map")
def check_fill_chain_map() -> tuple:
    n_inst = 200
    rng = np.random.default_rng(SEED + 7)
    w1 = spaces.make_window("zd", 20, 4, dim=1)
    w2 = spaces.make_window("zd", 14, 4, dim=2)
    chain_ok = True
    round_ok = True
    for i in range(n_inst):
        w = (w1, w2)[i % 2]
        q = 1 + (i // 2) % 2
        c = ufchain.random_chain(w, q, n_terms=4, max_len=4,
                                 seed=int(rng.integers(2 ** 31)), coeff="int",
                                 safe_radius=min(w.margin + 8, w.W - 1))
        lhs = ufchain.boundary(fill.fill_chain(c))
        rhs = fill.fill_chain(ufchain.boundary(c))
        if not (lhs == rhs):
            chain_ok = False
        # roundtrip on random unit chains
        s = _random_unit_chain(w, q, rng)
        if not fill.roundtrip_identity(s):
            round_ok = False
    return (chain_ok and round_ok,
            {"instances": n_inst, "chain_map_exact": chain_ok,
             "roundtrip_exact": round_ok})


def _random_unit_chain(w, q, rng):
    """Up to 5 random unit simplices of degree q <= 2 on a 1-D or 2-D lattice
    window; a candidate with a vertex outside the window is skipped."""
    s = fill.SimplicialChain(w, q)
    pts = w.safe_points
    tries = 0
    while len(s) < 5 and tries < 200:
        tries += 1
        p = int(pts[rng.integers(len(pts))])
        if q == 0:
            s.add_simplex((p,), int(rng.integers(1, 4)))
            continue
        if q == 1 and w.dim == 1:
            steps = [(1,)]
        elif q == 1:
            steps = [((1, 0), (0, 1), (1, 1))[rng.integers(3)]]
        elif w.dim == 2:
            steps = [(1, 0), (1, 1)] if rng.random() < 0.5 else [(0, 1), (1, 1)]
        else:
            continue
        others = w.index_many(w.coords[p] + np.array(steps, dtype=np.int64))
        if (others < 0).any():
            continue
        s.add_simplex((p, *others.tolist()), int(rng.integers(1, 4)))
    return s


@_timed("crucial_estimate")
def check_crucial_estimate() -> tuple:
    n_chains = 200
    rng = np.random.default_rng(SEED + 8)
    w = spaces.make_window("zd", 24, 4, dim=2)
    growth = spaces.fit_growth(w)
    profiles = {q: fill.contractibility_profile(w, q, rmax=8) for q in (1, 2)}
    all_ok = True
    worst_ratio = 0.0
    for i in range(n_chains):
        q = 1 + i % 2
        c = ufchain.random_chain(w, q, n_terms=5, max_len=4,
                                 seed=int(rng.integers(2 ** 31)),
                                 safe_radius=9)
        rep = fill.verify_crucial_estimate(c, growth, profiles[q])
        if not rep.passed:
            all_ok = False
        if rep.rhs > 0:
            worst_ratio = max(worst_ratio, rep.lhs / rep.rhs)
    return (all_ok,
            {"chains": n_chains, "D": growth.D, "M": growth.M,
             "C1": profiles[1].C, "N1": profiles[1].N,
             "C2": profiles[2].C, "N2": profiles[2].N,
             "max_lhs_over_rhs": worst_ratio})


@_timed("winding_index_demo")
def check_winding() -> tuple:
    reports = [demo_winding(k, 28, 20) for k in (1, 2, 3, 4)]
    ratios = [r.ratio for r in reports]
    spread = max(abs(r - ratios[0]) for r in ratios)
    k1 = reports[0]
    raw_ok = abs(k1.pairing_stripped - (-1)) < 1e-10
    idx_ok = [r.oracle_index == -r.k for r in reports]
    passed = spread < 1e-9 and raw_ok and all(idx_ok)
    return (passed,
            {"ratio_spread": spread, "k1_stripped": k1.pairing_stripped,
             "oracle_indices": [r.oracle_index for r in reports]})


@_timed("growth_fits")
def check_growth_fits() -> tuple:
    w1 = spaces.make_window("zd", 16, 0, dim=1)
    w2 = spaces.make_window("zd", 16, 0, dim=2)
    wh = spaces.make_window("heisenberg3", 16, 0)
    wt = spaces.make_window("tree3", 7, 0)
    f1 = spaces.fit_growth(w1)
    f2 = spaces.fit_growth(w2)
    fh = spaces.fit_growth(wh)
    ft = spaces.fit_growth(wt)
    ok = (abs(f1.M - 1) <= 0.2 and abs(f2.M - 2) <= 0.2
          and 3.2 <= fh.M <= 4.8 and ft.exponential_flag
          and not f1.exponential_flag and not f2.exponential_flag)
    return (ok,
            {"M_z1": f1.M, "M_z2": f2.M, "M_heis": fh.M,
             "tree_exponential": ft.exponential_flag})


@_timed("pairing_continuity_trend")
def check_continuity_trend() -> tuple:
    phi = cochain.Jump(0, 0)
    maxima = {}
    for W in (16, 24, 32):
        w = spaces.make_window("zd", W, 4, dim=1)

        def sampler(s, _w=w):
            return ufchain.random_chain(_w, 1, n_terms=40, max_len=6, seed=s,
                                        coeff="complex", safe_radius=7)

        res = cochain.continuity_sweep(phi, sampler, n=3, trials=500,
                                       seed=SEED + 9)
        maxima[W] = res.max_ratio
    # no growth with W: every window's ratio stays within 1.2x the smallest
    # window's (the ratio falls as W grows, as the uniform bound predicts)
    ok = max(maxima.values()) <= 1.2 * maxima[16]
    return (ok,
            {"max_ratio_W16": maxima[16], "max_ratio_W24": maxima[24],
             "max_ratio_W32": maxima[32]})


ALL_CHECKS = [
    check_boundary_identities,
    check_pairing_adjointness,
    check_chain_map,
    check_cyclic_invariance,
    check_product_estimate,
    check_power_estimate,
    check_neumann,
    check_fill_chain_map,
    check_crucial_estimate,
    check_winding,
    check_growth_fits,
    check_continuity_trend,
]


def run_suite() -> RunReport:
    """Run every acceptance check, printing one line per check."""
    report = RunReport(command="suite run")
    t0 = time.perf_counter()
    for chk in ALL_CHECKS:
        t1 = time.perf_counter()
        try:
            result = chk()
        except CoarselabError as exc:
            # precondition violations surface as clean per-check failures
            result = CheckResult(chk.check_name, False, time.perf_counter() - t1,
                                 {"error": str(exc)})
        report.checks.append(result)
        print(result.line())
    report.wall_clock = time.perf_counter() - t0
    return report
