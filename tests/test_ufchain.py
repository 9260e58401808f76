"""Uniformly finite chains: boundary, decay norms, shell norms."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import spaces, ufchain
from coarselab.errors import DegreeError, PointNotInWindowError, PreconditionError


@pytest.fixture(scope="module")
def w():
    return spaces.make_window("zd", 16, 6, dim=1)


def chain_of(w, *terms, degree=None):
    entries = [(tuple(w.index_of((x,)) for x in tup), v) for tup, v in terms]
    q = len(entries[0][0]) - 1 if entries else degree
    return ufchain.UfChain(w, q, entries)


def test_boundary_edge(w):
    c = chain_of(w, ((0, 5), 1))
    b = ufchain.boundary(c)
    assert b.support.get((w.index_of((5,)),), 0) == 1
    assert b.support.get((w.index_of((0,)),), 0) == -1
    assert len(b) == 2


def test_boundary_triple(w):
    c = chain_of(w, ((0, 1, 2), 1))
    b = ufchain.boundary(c)
    i = w.index_of
    assert b.support.get((i((1,)), i((2,))), 0) == 1
    assert b.support.get((i((0,)), i((2,))), 0) == -1
    assert b.support.get((i((0,)), i((1,))), 0) == 1


def test_boundary_squared_zero(w):
    c = chain_of(w, ((0, 1, 2), 1))
    assert len(ufchain.boundary(ufchain.boundary(c))) == 0


def test_boundary_squared_zero_random_exact(w):
    rng = np.random.default_rng(11)
    for q in (2, 3):
        for trial in range(50):
            c = ufchain.random_chain(w, q, n_terms=8, max_len=4,
                                     seed=int(rng.integers(2 ** 31)),
                                     coeff="int")
            assert len(ufchain.boundary(ufchain.boundary(c))) == 0


def test_boundary_degree_zero_errors(w):
    with pytest.raises(DegreeError):
        ufchain.boundary(ufchain.UfChain(w, 0, {(0,): 1}))


def test_boundary_propagation_shrinks(w):
    c = ufchain.random_chain(w, 2, n_terms=6, max_len=5, seed=5)
    assert ufchain.boundary(c).propagation <= c.propagation


def test_norm_examples(w):
    c = chain_of(w, ((0, 3), 2))
    assert ufchain.norm_inf_n(c, 2) == 18
    diag = chain_of(w, ((5, 5), 7))
    assert ufchain.norm_inf_n(diag, 1) == 0
    assert ufchain.norm_inf_n(diag, 0) == 7
    mixed = chain_of(w, ((0, 3), 2), ((0, 1), 5))
    assert ufchain.norm_inf_n(mixed, 0) == 5


def test_graded_norm_examples(w):
    c = chain_of(w, ((0, 3), 1))
    assert ufchain.graded_norm(c, 1) == 3
    assert ufchain.graded_norm(c, 0) == 2
    zero = ufchain.UfChain(w, 1)
    assert ufchain.graded_norm(zero, 4) == 0


def test_shell_norm_examples(w):
    c = chain_of(w, ((0, 3), 2))
    assert ufchain.shell_norm(c, 3) == 2
    assert ufchain.shell_norm(c, 2) == 0
    zero = ufchain.UfChain(w, 1)
    assert all(ufchain.shell_norm(zero, R) == 0 for R in range(1, 6))


def test_shell_bridge_inequality_example(w):
    c = chain_of(w, ((0, 3), 2))
    assert ufchain.shell_norm(c, 3) <= 2 * ufchain.norm_inf_n(c, 1) / 3


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 4),
       R=st.integers(2, 8))
def test_shell_bridge_inequality_random(seed, n, R):
    w = spaces.make_window("zd", 16, 6, dim=1)
    c = ufchain.random_chain(w, 1, n_terms=10, max_len=8, seed=seed)
    lhs = ufchain.shell_norm(c, R)
    rhs = 2 ** n * ufchain.norm_inf_n(c, n) / R ** n
    assert lhs <= rhs * (1 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), scale=st.integers(1, 9),
       n=st.integers(0, 3))
def test_seminorm_homogeneity_and_triangle(seed, scale, n):
    w = spaces.make_window("zd", 12, 4, dim=1)
    a = ufchain.random_chain(w, 1, n_terms=6, max_len=4, seed=seed)
    b = ufchain.random_chain(w, 1, n_terms=6, max_len=4, seed=seed + 1)
    assert ufchain.norm_inf_n(a.scale(scale), n) == pytest.approx(
        scale * ufchain.norm_inf_n(a, n))
    assert ufchain.norm_inf_n(a + b, n) <= \
        ufchain.norm_inf_n(a, n) + ufchain.norm_inf_n(b, n) + 1e-12


def test_norm_nondecreasing_in_n_when_spread(w):
    c = chain_of(w, ((0, 2), 1), ((1, 4), 0.5))
    norms = [ufchain.norm_inf_n(c, n) for n in range(5)]
    assert all(x <= y + 1e-12 for x, y in zip(norms, norms[1:]))


def test_zero_coefficients_dropped(w):
    c = chain_of(w, ((0, 1), 1), ((0, 1), -1), degree=1)
    assert len(c) == 0


def test_exact_fraction_coefficients(w):
    i = w.index_of
    c = ufchain.UfChain(w, 1, {(i((0,)), i((2,))): Fraction(1, 3),
                               (i((2,)), i((4,))): Fraction(2, 3)})
    b = ufchain.boundary(c)
    # +1/3 from the face of (0,2), -2/3 from the face of (2,4)
    assert b.support.get((i((2,)),), 0) == Fraction(-1, 3)
    assert isinstance(b.support[(i((2,)),)], Fraction)


def test_point_validation(w):
    with pytest.raises(PointNotInWindowError):
        ufchain.UfChain(w, 0, {(9999,): 1})
    with pytest.raises(DegreeError):
        ufchain.UfChain(w, 1, {(0, 1, 2): 1})


def test_random_chain_same_with_warm_ball_cache():
    # the second draw reads the anchors' balls from the window's memo; the
    # chain must equal a draw on a fresh window
    cold = spaces.make_window("zd", 8, 2, dim=2)
    first = ufchain.random_chain(cold, 2, n_terms=20, max_len=3, seed=9, coeff="int")
    warm = ufchain.random_chain(cold, 2, n_terms=20, max_len=3, seed=9, coeff="int")
    fresh = ufchain.random_chain(spaces.make_window("zd", 8, 2, dim=2), 2,
                                 n_terms=20, max_len=3, seed=9, coeff="int")
    assert len(cold.derived(("ball", 3), dict)) > 0
    assert dict(first.terms()) == dict(warm.terms()) == dict(fresh.terms())


def test_random_chain_pinned():
    # tuples, value bits and Python value types of draws on every window
    # kind, both coefficient kinds, degrees 0..3, with the default and an
    # explicit safe radius; short radii and many terms make repeats, so
    # summing and cancellation are covered too
    digest = hashlib.sha256()
    windows = (spaces.make_window("zd", 8, 2, dim=1), spaces.make_window("zd", 6, 2, dim=2),
               spaces.make_window("heisenberg3", 3, 1), spaces.make_window("tree3", 4, 1))
    for win in windows:
        for q in range(4):
            for coeff in ("int", "complex"):
                for safe_radius in (None, win.W - 1):
                    c = ufchain.random_chain(win, q, n_terms=25, max_len=2, seed=7 * q + 1,
                                             coeff=coeff, safe_radius=safe_radius)
                    values = c.values.tolist()
                    digest.update(repr(c.tuples.tolist()).encode())
                    digest.update(repr([type(v).__name__ for v in values]).encode())
                    digest.update(repr([(v.real.hex(), v.imag.hex()) if isinstance(v, complex)
                                        else v for v in values]).encode())
    assert digest.hexdigest()[:16] == "58d58838b596f5e9"


@pytest.mark.parametrize("coeff", ["int ", "real", "Complex", None])
def test_random_chain_refuses_unknown_coeff(coeff):
    w = spaces.make_window("zd", 8, 2, dim=1)
    with pytest.raises(PreconditionError):
        ufchain.random_chain(w, 1, n_terms=3, max_len=2, seed=0, coeff=coeff)


def test_json_roundtrip(w):
    c = ufchain.random_chain(w, 1, n_terms=7, max_len=4, seed=13)
    d = ufchain.to_json_dict(c)
    assert d["degree"] == 1
    assert set(d["terms"][0]) == {"tuple", "re", "im"}
    c2 = ufchain.from_json_dict(d, w)
    assert {t: complex(v) for t, v in c.terms()} == dict(c2.terms())


def test_array_roundtrip(w):
    c = ufchain.random_chain(w, 2, n_terms=9, max_len=4, seed=3)
    tuples, values = c.arrays()
    c2 = ufchain.UfChain.from_arrays(w, 2, tuples, values)
    assert dict(c.terms()) == dict(c2.terms())


def _face_sum(c):
    """The boundary as a dict face-sum loop over the chain's terms."""
    out = {}
    for tup, val in c.terms():
        for j in range(len(tup)):
            face = tup[:j] + tup[j + 1:]
            out[face] = out.get(face, 0) + (-val if j % 2 else val)
    return {t: v for t, v in out.items() if v != 0}


def test_boundary_arrays_matches_dict_path(w):
    # boundary_arrays against the face-sum loop it replaced: exact on int
    # chains, to rounding on complex ones (rows are summed in another order)
    w2 = spaces.make_window("zd", 10, 3, dim=2)
    for win, seed in ((w, 21), (w2, 22)):
        for q in (1, 2, 3):
            for coeff in ("int", "complex"):
                c = ufchain.random_chain(win, q, n_terms=12, max_len=3, seed=seed,
                                         coeff=coeff)
                bt, bv = ufchain.boundary_arrays(win, q, *c.arrays())
                got = dict(zip(map(tuple, bt.tolist()), bv.tolist()))
                expected = _face_sum(c)
                assert dict(ufchain.boundary(c).terms()) == got
                if coeff == "int":
                    assert got == expected
                    assert all(type(v) is int for v in got.values())
                else:
                    assert set(got) <= set(expected)
                    for k, v in expected.items():
                        assert got.get(k, 0) == pytest.approx(v, abs=1e-12)


def test_int64_coefficients_never_wrap(w):
    # a sum or product that could reach 2^63 is taken in Python ints
    p = w.index_of((0,))
    rows = np.full((3, 1), p, dtype=np.int64)
    big = np.full(3, 2 ** 62, dtype=np.int64)
    c = ufchain.UfChain.from_arrays(w, 0, rows, big)
    assert c.support.get((p,), 0) == 3 * 2 ** 62
    small = ufchain.UfChain(w, 0, {(p,): 2 ** 40})
    assert small.values.dtype == np.int64
    assert small.scale(2 ** 40).support.get((p,), 0) == 2 ** 80
    assert small.scale(-3).values.dtype == np.int64
    half = ufchain.UfChain(w, 0, {(p,): 2 ** 62})
    assert (half + half).support.get((p,), 0) == 2 ** 63
    edges = ufchain.UfChain(w, 1, {(p, p + 1): 2 ** 62, (p + 2, p + 1): 2 ** 62})
    assert ufchain.boundary(edges).support.get((p + 1,), 0) == 2 ** 63
    mixed = ufchain.UfChain(w, 0, {(p,): -1, (p + 1,): 2 ** 63})
    assert mixed.values.tolist() == [-1, 2 ** 63]
    assert ufchain.exact_column([-1, 2 ** 63]).dtype == object
    assert ufchain.exact_column(np.array([2 ** 62]), 2).tolist() == [2 ** 62]
    assert ufchain.exact_column(np.array([2 ** 62]), 2).dtype == object
    assert ufchain.exact_column([3, -4], 2).dtype == np.int64


def test_chain_arrays_and_support_are_read_only(w):
    c = ufchain.random_chain(w, 1, n_terms=5, max_len=3, seed=4, coeff="int")
    with pytest.raises(ValueError):
        c.tuples[0, 0] = 0
    with pytest.raises(ValueError):
        c.values[0] = 7
    with pytest.raises(TypeError):
        c.support[(0, 1)] = 1
    assert len(c.support) == len(c)


def test_chain_rows_coalesced(w):
    i = w.index_of
    c = ufchain.UfChain(w, 1, [((i((2,)), i((0,))), 1), ((i((0,)), i((1,))), 2),
                               ((i((2,)), i((0,))), -1), ((i((0,)), i((1,))), 3)])
    assert c.tuples.tolist() == [[i((0,)), i((1,))]]
    assert c.values.tolist() == [5]
    r = ufchain.random_chain(w, 2, n_terms=30, max_len=4, seed=2)
    assert np.all(np.diff(r.tuples @ (w.n_points ** np.arange(2, -1, -1))) > 0)
    assert np.all(r.values != 0)


def test_norms_match_loop_reference(w):
    # the vectorized norms against the scalar loops they replaced: equal
    # bit for bit, since each term's arithmetic is unchanged
    w2 = spaces.make_window("zd", 10, 3, dim=2)
    for win, seed, coeff in ((w, 1, "complex"), (w, 2, "int"), (w2, 3, "complex")):
        for q in (0, 1, 2):
            c = ufchain.random_chain(win, q, n_terms=12, max_len=4, seed=seed, coeff=coeff)
            lengths = {t: win.tuple_length(t) for t, _ in c.terms()}
            for n in (0, 1, 3, 2.7, 9.763537466128486):
                expected = max((abs(v) * (1.0 if lengths[t] == 0 and n == 0
                                          else float(lengths[t]) ** n)
                                for t, v in c.terms()), default=0.0)
                assert ufchain.norm_inf_n(c, n) == expected
            for R in range(1, 6):
                assert ufchain.shell_norm(c, R) == max(
                    (abs(v) for t, v in c.terms() if R - 1 < lengths[t] <= R), default=0)
            assert c.sup_norm() == max((abs(v) for _, v in c.terms()), default=0)
            assert c.propagation == max(lengths.values(), default=0)
