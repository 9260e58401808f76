"""Coarse cochains: coboundary conventions, support, pairing, rough maps."""

import numpy as np
import pytest

from coarselab import cochain, spaces, ufchain
from coarselab.errors import DegreeError, MarginError, PointNotInWindowError


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


def test_pullback_identity_and_shifts(w):
    J = cochain.Jump(0, 0)
    f_id = cochain.RoughMap.identity(w)
    for tup in [idx(w, -1, 1), idx(w, -3, 0), idx(w, 4, 5)]:
        assert cochain.evaluate(cochain.pullback(f_id, J), w, tup) == \
            cochain.evaluate(J, w, tup)
    big = spaces.make_window("zd", 45, 4, dim=1)
    doubling = cochain.RoughMap.from_callable(w, big, lambda lb: (2 * lb[0],))
    assert cochain.evaluate(cochain.pullback(doubling, J), w, idx(w, -1, 1)) == 1
    shift5 = cochain.RoughMap.from_callable(w, big, lambda lb: (lb[0] + 5,))
    pulled = cochain.pullback(shift5, J)
    ref = cochain.Jump(0, -5)
    for a in range(-10, 10):
        for b in range(-10, 10):
            assert cochain.evaluate(pulled, w, idx(w, a, b)) == \
                cochain.evaluate(ref, w, idx(w, a, b))


def test_pullback_respects_composition(w):
    big = spaces.make_window("zd", 50, 4, dim=1)
    f = cochain.RoughMap.from_callable(w, big, lambda lb: (2 * lb[0],))
    g = cochain.RoughMap.from_callable(big, big, lambda lb: (lb[0] + 1,))
    gf = g.compose(f)
    J = cochain.Jump(0, 0)
    lhs = cochain.pullback(gf, J)
    rhs = cochain.pullback(f, cochain.pullback(g, J))
    for a in range(-6, 6):
        for b in range(-6, 6):
            assert cochain.evaluate(lhs, w, idx(w, a, b)) == \
                cochain.evaluate(rhs, w, idx(w, a, b))


def test_pullback_image_outside_target(w):
    small = spaces.make_window("zd", 3, 0, dim=1)
    with pytest.raises(PointNotInWindowError):
        cochain.RoughMap.from_callable(w, small, lambda lb: (2 * lb[0],))


def test_rough_check_identity(w):
    rep = cochain.rough_check(cochain.RoughMap.identity(w))
    assert rep.passed
    assert rep.s_plus.N == pytest.approx(1.0, abs=0.05)
    assert rep.s_plus.C == pytest.approx(1.0, abs=0.05)


def test_rough_check_doubling(w):
    big = spaces.make_window("zd", 45, 4, dim=1)
    f = cochain.RoughMap.from_callable(w, big, lambda lb: (2 * lb[0],))
    rep = cochain.rough_check(f)
    assert rep.passed
    assert rep.s_plus.N == pytest.approx(1.0, abs=0.05)
    assert rep.s_plus.C == pytest.approx(2.0, abs=0.1)


def test_rough_check_square_not_rough(w):
    # x -> x^2 collapses far mirror points: the backward control saturates at
    # the window scale and the check reports not-rough with a warning
    big = spaces.make_window("zd", 400, 4, dim=1)
    f = cochain.RoughMap.from_callable(w, big, lambda lb: (lb[0] ** 2,))
    rep = cochain.rough_check(f)
    assert not rep.passed
    assert any("saturates" in msg for msg in rep.warnings)
    assert rep.s_plus.N > 0


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
