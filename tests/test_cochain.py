"""Coarse cochains: coboundary conventions, support, pairing."""

import itertools

import numpy as np
import pytest

from coarselab import cochain, spaces, ufchain
from coarselab.errors import DegreeError, MarginError, PreconditionError


@pytest.fixture(scope="module")
def w():
    return spaces.make_window("zd", 20, 6, dim=1)


def idx(w, *xs):
    return tuple(w.index_of((x,)) for x in xs)


def test_jump_evaluation(w):
    J = cochain.Jump(0, 0)
    assert cochain.evaluate(J, w, idx(w, -2, 3)) == 1
    assert cochain.evaluate(J, w, idx(w, 3, -2)) == -1
    assert cochain.evaluate(J, w, idx(w, 4, 7)) == 0


def test_table_evaluation(w):
    t = cochain.Table(1, {idx(w, 0, 1): 5})
    assert cochain.evaluate(t, w, idx(w, 0, 1)) == 5
    assert cochain.evaluate(t, w, idx(w, 1, 0)) == 0


def test_evaluate_arity_mismatch(w):
    with pytest.raises(DegreeError):
        cochain.evaluate(cochain.Jump(0, 0), w, idx(w, 1, 2, 3))


def test_coboundary_degree0_formula(w):
    p = idx(w, 2)[0]
    phi = cochain.Table(0, {(p,): 1})
    d = cochain.coboundary(phi)
    y0, y1 = idx(w, 2, 5)
    # (d phi)(y0, y1) = phi(y1) - phi(y0)
    assert cochain.evaluate(d, w, (y0, y1)) == -1
    assert cochain.evaluate(d, w, (y1, y0)) == 1


def test_jump_is_closed_on_random_triples(w):
    # expand the telescoping indicator sum on 200 random triples
    rng = np.random.default_rng(5)
    dJ = cochain.coboundary(cochain.Jump(0, 0))
    for _ in range(200):
        tup = tuple(int(x) for x in rng.integers(0, w.n_points, size=3))
        assert cochain.evaluate(dJ, w, tup) == 0


@pytest.mark.parametrize("conv", ["full", "from1"])
def test_coboundary_squares_to_zero(w, conv):
    rng = np.random.default_rng(9)
    for q in (0, 1):
        pts = w.safe_points
        table = {tuple(int(pts[rng.integers(len(pts))]) for _ in range(q + 1)):
                 int(rng.integers(-5, 6)) for _ in range(6)}
        phi = cochain.Table(q, table)
        dd = cochain.coboundary(cochain.coboundary(phi, conv), conv)
        for _ in range(40):
            tup = tuple(int(x) for x in rng.integers(0, w.n_points, size=q + 3))
            assert cochain.evaluate(dd, w, tup) == 0


def test_support_check_jump(w):
    report = cochain.support_check(cochain.Jump(0, 0), w, 3)
    assert report[3].count > 0
    assert report[3].diameter <= 6
    assert not report[3].unbounded_within_window


def test_support_check_constant_flagged(w):
    one = cochain.Indicator(predicate=lambda lb: True)
    report = cochain.support_check(one, w, 2)
    assert report[1].unbounded_within_window


def test_indicator_needs_exactly_one_description(w):
    with pytest.raises(PreconditionError):
        cochain.Indicator()
    with pytest.raises(PreconditionError):
        cochain.Indicator(points=[1], predicate=lambda lb: True)
    # an empty point set is a description, not a missing one
    assert not cochain.Indicator(points=[]).values(w, w.safe_points[:, None]).any()


def test_support_check_zero(w):
    zero = cochain.Table(1, {})
    report = cochain.support_check(zero, w, 3)
    assert all(report[R].count == 0 for R in report)


def test_support_check_degree2_table(w):
    i = w.index_of
    phi = cochain.Table(2, {(i((0,)), i((1,)), i((2,))): 3,
                            (i((-1,)), i((0,)), i((1,))): 2})
    report = cochain.support_check(phi, w, 3)
    assert report[1].count == 0
    assert report[2].count == 2
    assert report[2].diameter == 1
    assert not report[3].unbounded_within_window


def test_support_check_jump_on_plane_flagged():
    # the hyperplane jump is not coarse in dimension 2: its near-diagonal
    # support runs along the whole threshold hyperplane
    w2 = spaces.make_window("zd", 8, 3, dim=2)
    report = cochain.support_check(cochain.Jump(0, 0), w2, 2)
    assert report[2].unbounded_within_window


def test_pair_single_crossing(w):
    c = ufchain.UfChain(w, 1, {idx(w, -5, 7): 1})
    assert cochain.pair(cochain.Jump(0, 0), c) == 1


def test_pair_closed_against_boundaries(w):
    rng = np.random.default_rng(17)
    J = cochain.Jump(0, 0)
    for trial in range(30):
        b = ufchain.random_chain(w, 2, n_terms=5, max_len=3,
                                 seed=int(rng.integers(2 ** 31)), coeff="int",
                                 safe_radius=w.margin + 3)
        assert cochain.pair(J, ufchain.boundary(b)) == 0


def test_pair_zero_chain(w):
    assert cochain.pair(cochain.Jump(0, 0), ufchain.UfChain(w, 1)) == 0


def test_pair_degree_mismatch(w):
    with pytest.raises(DegreeError):
        cochain.pair(cochain.Jump(0, 0), ufchain.UfChain(w, 2))


def test_pair_margin_enforced(w):
    edge = idx(w, -20, 19)
    c = ufchain.UfChain(w, 1, {edge: 1})
    with pytest.raises(MarginError):
        cochain.pair(cochain.Jump(0, 0), c)


def test_adjointness_full_convention(w):
    rng = np.random.default_rng(23)
    pts = w.safe_points
    for q in (0, 1):
        table = {tuple(int(pts[rng.integers(len(pts))]) for _ in range(q + 1)):
                 int(rng.integers(-4, 5)) for _ in range(5)}
        phi = cochain.Table(q, table)
        c = ufchain.random_chain(w, q + 1, n_terms=6, max_len=3,
                                 seed=int(rng.integers(2 ** 31)), coeff="int",
                                 safe_radius=w.margin + 3)
        assert cochain.pair(cochain.coboundary(phi), c) == \
            cochain.pair(phi, ufchain.boundary(c))


def test_continuity_sweep_homogeneity(w):
    J = cochain.Jump(0, 0)

    def sampler(s):
        return ufchain.random_chain(w, 1, n_terms=10, max_len=4, seed=s,
                                    safe_radius=10)

    res = cochain.continuity_sweep(J, sampler, n=3, trials=50, seed=2)
    assert res.max_ratio > 0

    def sampler10(s):
        return sampler(s).scale(10)

    res10 = cochain.continuity_sweep(J, sampler10, n=3, trials=50, seed=2)
    assert res10.max_ratio == pytest.approx(res.max_ratio, rel=1e-9)


def test_continuity_sweep_skips_trivial(w):
    J = cochain.Jump(0, 0)
    p = w.index_of((2,))

    def diag_sampler(s):
        return ufchain.UfChain(w, 1, {(p, p): 1.0})

    res = cochain.continuity_sweep(J, diag_sampler, n=2, trials=5, seed=0)
    assert res.trivial == 5 and res.max_ratio == 0


# -- the row evaluation against a scalar reference ---------------------------------

def _scalar(phi, window, tup):
    """phi on one tuple, from the definition of each node."""
    if isinstance(phi, cochain.Jump):
        def h(p):
            return 1 if window.coords[p][phi.axis] >= phi.threshold else 0
        return h(tup[1]) - h(tup[0])
    if isinstance(phi, cochain.Table):
        return phi.entries.get(tuple(tup), 0)
    if isinstance(phi, cochain.Indicator):
        if phi.points is not None:
            return 1 if tup[0] in phi.points else 0
        return 1 if phi.predicate(window.label(tup[0])) else 0
    if isinstance(phi, cochain.Sum):
        return _scalar(phi.left, window, tup) + _scalar(phi.right, window, tup)
    if isinstance(phi, cochain.Scale):
        return phi.z * _scalar(phi.child, window, tup)
    if isinstance(phi, cochain.Coboundary):
        lo = 0 if phi.convention == "full" else 1
        total = 0
        for i in range(lo, len(tup)):
            v = _scalar(phi.child, window, tup[:i] + tup[i + 1:])
            total += -v if i % 2 else v
        return total
    raise TypeError(phi)


def _rows(rng, pts, q, count):
    return np.array([[int(pts[rng.integers(len(pts))]) for _ in range(q + 1)]
                     for _ in range(count)], dtype=np.int64)


def _node_zoo(w):
    rng = np.random.default_rng(31)
    pts = w.safe_points
    table = cochain.Table(1, {tuple(r): int(rng.integers(-5, 6))
                              for r in _rows(rng, pts[:8], 1, 30).tolist()})
    table0 = cochain.Table(0, {(int(p),): int(rng.integers(1, 4)) for p in pts[::3]})
    by_points = cochain.Indicator(points=pts[::2])
    by_label = cochain.Indicator(predicate=lambda lb: lb[0] % 3 == 1)
    return [cochain.Jump(0, 0), cochain.Jump(0, -3), table, table0, by_points,
            by_label, cochain.Sum(table, cochain.Jump(0, 2)),
            cochain.Scale(2.5 - 1j, table), cochain.Scale(3, by_label),
            cochain.coboundary(table0), cochain.coboundary(table0, "from1"),
            cochain.coboundary(table, "full"), cochain.coboundary(table, "from1"),
            cochain.coboundary(cochain.coboundary(by_points, "from1"), "full"),
            cochain.coboundary(cochain.Scale(0.1 + 2.5j, table)),
            cochain.coboundary(cochain.Sum(table, cochain.Scale(1 / 3, table)), "from1")]


def test_values_match_scalar_definitions(w):
    rng = np.random.default_rng(32)
    for phi in _node_zoo(w):
        # half the rows among the first few points, where the tables live
        rows = np.concatenate([_rows(rng, w.safe_points, phi.degree, 60),
                               _rows(rng, w.safe_points[:8], phi.degree, 60)])
        got = phi.values(w, rows)
        assert got.shape == (len(rows),)
        expected = [_scalar(phi, w, tuple(r)) for r in rows.tolist()]
        assert got.tolist() == expected, phi
        assert cochain.evaluate(phi, w, rows[0]) == expected[0]
        assert len(phi.values(w, rows[:0])) == 0


def test_coboundary_calls_its_child_once(w):
    # a coboundary evaluates its child once, on the faces of all rows stacked
    calls = []

    class Counted(cochain.Table):
        def values(self, window, tuples):
            calls.append(tuples.shape)
            return super().values(window, tuples)
    table = Counted(0, {(int(p),): 1 for p in w.safe_points[:4]})
    rows = _rows(np.random.default_rng(33), w.safe_points, 2, 7)
    for conv, shape in (("full", (7 * 3 * 2, 1)), ("from1", (7 * 2 * 1, 1))):
        calls.clear()
        dd = cochain.coboundary(cochain.coboundary(table, conv), conv)
        assert dd.values(w, rows).tolist() == [0] * 7
        assert calls == [shape]


def test_node_values_never_wrap(w):
    # int64 values that a sum, a scaling or a coboundary could push to 2^63
    # are taken in Python ints, as the scalar definitions take them
    p, r, s = (int(x) for x in w.safe_points[:3])
    huge = cochain.Table(0, {(p,): 2 ** 62, (r,): -2 ** 62, (s,): 2 ** 30})
    edges = cochain.Table(1, {(p, r): 2 ** 62, (r, p): -2 ** 62, (s, s): 3})
    nodes = [cochain.Scale(2 ** 40, huge), cochain.Scale(-2, huge),
             cochain.Sum(huge, huge), cochain.Sum(edges, cochain.Scale(3, edges)),
             cochain.coboundary(huge), cochain.coboundary(huge, "from1"),
             cochain.coboundary(edges), cochain.Scale(5, cochain.coboundary(edges))]
    for phi in nodes:
        rows = np.array(list(itertools.product((p, r, s), repeat=phi.degree + 1)),
                        dtype=np.int64)
        expected = [_scalar(phi, w, tuple(t)) for t in rows.tolist()]
        assert phi.values(w, rows).tolist() == expected, phi
    assert cochain.evaluate(cochain.Scale(2 ** 40, huge), w, (s,)) == 2 ** 70
    assert cochain.evaluate(cochain.Sum(huge, huge), w, (p,)) == 2 ** 63
    assert cochain.evaluate(cochain.coboundary(huge), w, (r, p)) == 2 ** 63
    c = ufchain.UfChain(w, 1, {(r, p): 3, (s, p): 1})
    assert cochain.pair(cochain.coboundary(huge), c) == 3 * 2 ** 63 + 2 ** 62 - 2 ** 30


def _support_brute_force(phi, w, Rmax):
    safe = [int(p) for p in w.safe_points]
    limit = w.W - w.margin
    supported = [t for t in itertools.product(safe, repeat=phi.degree + 1)
                 if w.tuple_length(t) <= Rmax and _scalar(phi, w, t) != 0]
    out = {}
    for R in range(1, Rmax + 1):
        ts = [t for t in supported if w.tuple_length(t) <= R]
        diam = max((w.dist(a[j], b[j]) for a in ts for b in ts
                    for j in range(phi.degree + 1)), default=0)
        touches = any(w.dist_to_base[p] >= limit for t in ts for p in t)
        out[R] = (len(ts), diam, touches)
    return out


SUPPORT_CASES = {
    "jump": (1, lambda i: cochain.Jump(0, 0)),
    "table2": (1, lambda i: cochain.Table(2, {(i((0,)), i((1,)), i((3,))): 2,
                                              (i((2,)), i((2,)), i((1,))): 1,
                                              (i((-4,)), i((0,)), i((2,))): 5})),
    "indicator": (1, lambda i: cochain.Indicator(predicate=lambda lb: lb[0] >= 2)),
    "d_points": (2, lambda i: cochain.coboundary(
        cochain.Indicator(points=[i((0, 0)), i((1, 0))]))),
    "jump_plane": (2, lambda i: cochain.Jump(1, 1)),
}


@pytest.mark.parametrize("case", sorted(SUPPORT_CASES))
def test_support_check_against_brute_force(case):
    dim, make = SUPPORT_CASES[case]
    w = spaces.make_window("zd", 9 if dim == 1 else 5, 3 if dim == 1 else 2, dim=dim)
    phi = make(w.index_of)
    Rmax = 3 if dim == 1 else 2
    report = cochain.support_check(phi, w, Rmax)
    expected = _support_brute_force(phi, w, Rmax)
    assert {R: (s.count, s.diameter, s.unbounded_within_window)
            for R, s in report.items()} == expected
