"""Cyclic tensors, Chern characters, the rough character and its chain map."""

import hashlib
import itertools
import math

import numpy as np
import pytest
import scipy

from coarselab import cochain, cyclic, opalg, spaces, suite, ufchain
from coarselab.errors import DegreeError, MarginError, PreconditionError


@pytest.fixture(scope="module")
def w():
    return spaces.make_window("zd", 16, 8, dim=1)


def _perm_sign_oracle(p):
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def path_products_dense(ops, fiber):
    """Dense tensor T[z_0..z_n] = tr(A_0[z_n,z_0] A_1[z_0,z_1] .. A_n[z_{n-1},z_n])."""
    n = len(ops) - 1
    N = ops[0].window.n_points
    blocks = [A.mat.toarray().reshape(N, fiber, N, fiber) for A in ops]
    z, i = "abcde", "ijklm"
    subs = [z[n] + i[n] + z[0] + i[0]]
    subs += [z[k - 1] + i[k - 1] + z[k] + i[k] for k in range(1, n + 1)]
    return np.einsum(",".join(subs) + "->" + z[:n + 1], *blocks)


def chi_dense_oracle(ops, fiber=1):
    """Brute-force character on ordered tuples: the dense path products,
    antisymmetrized by a signed sum of axis transposes."""
    T = path_products_dense(ops, fiber)
    arity = T.ndim
    chi = sum(_perm_sign_oracle(sigma) * np.transpose(T, sigma)
              for sigma in itertools.permutations(range(arity)))
    chi = chi / math.factorial(arity)
    return {tuple(int(p) for p in tup): chi[tup]
            for tup in zip(*np.nonzero(np.abs(chi) > 1e-13))}


def test_lambda_examples(w):
    A = opalg.random_banded(w, 1, prop=1, decay=0.8)
    B = opalg.random_banded(w, 2, prop=1, decay=0.8)
    C = opalg.random_banded(w, 3, prop=1, decay=0.8)
    t1 = cyclic.CyclicTensor(1, [(2.0, (A, B))])
    lt = cyclic.lambda_op(t1)
    assert lt.terms[0][0] == -2.0
    assert lt.terms[0][1] == (B, A)
    ll = cyclic.lambda_op(lt)
    assert ll.terms[0][0] == 2.0 and ll.terms[0][1] == (A, B)
    t0 = cyclic.CyclicTensor(0, [(1.0, (A,))])
    assert cyclic.lambda_op(t0).terms[0][1] == (A,)
    t2 = cyclic.CyclicTensor(2, [(1.0, (A, B, C))])
    r3 = cyclic.lambda_op(cyclic.lambda_op(cyclic.lambda_op(t2)))
    assert r3.terms[0][0] == 1.0 and r3.terms[0][1] == (A, B, C)


def test_hochschild_degree1(w):
    A = opalg.random_banded(w, 4, prop=1, decay=0.8)
    B = opalg.random_banded(w, 5, prop=1, decay=0.8)
    bt = cyclic.hochschild_b(cyclic.CyclicTensor(1, [(1.0, (A, B))]))
    # b(A (x) B) = AB - BA
    total = sum((wgt * ops[0].mat for wgt, ops in bt.terms),
                start=0 * A.mat)
    assert abs((total - (A.mat @ B.mat - B.mat @ A.mat))).max() < 1e-12


def test_hochschild_unit_annihilates(w):
    A = opalg.random_banded(w, 6, prop=1, decay=0.8)
    one = opalg.identity(w)
    bt = cyclic.hochschild_b(cyclic.CyclicTensor(1, [(1.0, (A, one))]))
    total = sum((wgt * ops[0].mat for wgt, ops in bt.terms), start=0 * A.mat)
    assert abs(total.toarray()).max() < 1e-14


def test_hochschild_degree2_formula(w):
    A = opalg.random_banded(w, 7, prop=1, decay=0.8)
    B = opalg.random_banded(w, 8, prop=1, decay=0.8)
    C = opalg.random_banded(w, 9, prop=1, decay=0.8)
    bt = cyclic.hochschild_b(cyclic.CyclicTensor(2, [(1.0, (A, B, C))]))
    expect = [(1, (A.mat @ B.mat, C.mat)), (-1, (A.mat, B.mat @ C.mat)),
              (1, (C.mat @ A.mat, B.mat))]
    assert len(bt.terms) == 3
    for (wgt, ops), (ew, ems) in zip(bt.terms, expect):
        assert wgt == ew
        for op, em in zip(ops, ems):
            assert abs((op.mat - em)).max() < 1e-12


def test_hochschild_degree0_errors(w):
    t = cyclic.CyclicTensor(0, [(1.0, (opalg.identity(w),))])
    with pytest.raises(DegreeError):
        cyclic.hochschild_b(t)


def test_chern0_weights(w):
    e = opalg.diag_indicator(w, lambda lb: lb[0] % 2 == 0)
    t0 = cyclic.chern0(e, 0)
    assert t0.degree == 0 and t0.tau_power == 0
    assert t0.terms[0][0] == 1.0
    t1 = cyclic.chern0(e, 1)
    assert t1.degree == 2 and t1.tau_power == 1
    assert t1.terms[0][0] == 2.0  # (2n)!/n! at n=1; times (2 pi i)^1
    assert len(t1.terms[0][1]) == 3
    assert t1.numeric_prefactor() == pytest.approx(2j * math.pi)


def test_chern0_zero_idempotent_pairs_to_zero(w):
    Z = opalg.BandedOperator(w, np.zeros((w.n_points, w.n_points)))
    t = cyclic.chern0(Z, 0)
    phi = cochain.Indicator(predicate=lambda lb: True)
    assert cyclic.character_pairing(phi, t).raw == 0


def test_chern0_rejects_non_idempotent(w):
    A = opalg.shift(w, 0, 1).scale(0.5)
    with pytest.raises(PreconditionError):
        cyclic.chern0(A, 0)


def test_chern1_weights(w):
    u = opalg.winding_unitary(w, 1)
    t = cyclic.chern1(u, 0)
    assert t.degree == 1 and t.tau_power == 1 and t.terms[0][0] == 1.0
    t1 = cyclic.chern1(u, 1)
    assert t1.degree == 3 and t1.tau_power == 2
    assert t1.terms[0][0] == 3.0  # (2n+1)!/(n+1)! = 3!/2! at n=1
    assert len(t1.terms[0][1]) == 4


def test_chern1_rejects_bad_inverse(w):
    u = opalg.shift(w, 0, 1).scale(2.0)
    with pytest.raises(PreconditionError):
        cyclic.chern1(u, 0)


def test_chi_site_projection(w):
    p = w.index_of((3,))
    e = opalg.site_projection(w, p)
    chain = cyclic.chi(cyclic.CyclicTensor(0, [(1.0, (e,))]))
    assert dict(chain.terms()) == {(p,): 1 + 0j}


def test_chi_support_bound(w):
    S = opalg.shift(w, 0, 1)
    one = opalg.identity(w)
    t = cyclic.CyclicTensor(1, [(1.0, (S.adjoint() - one, S - one))])
    chain = cyclic.chi(t)
    assert len(chain) > 0
    for tup in dict(chain.terms()):
        assert abs(w.label(tup[0])[0] - w.label(tup[1])[0]) <= 1


def assert_chain_matches(chain, oracle, scale=1.0):
    got = {t: complex(v) for t, v in chain.terms()}
    for k in set(got) | set(oracle):
        assert got.get(k, 0j) == pytest.approx(scale * oracle.get(k, 0j),
                                               abs=1e-12)


def test_chi_against_dense_oracle_deg1(w):
    A = opalg.random_banded(w, 11, prop=2, decay=0.7)
    B = opalg.random_banded(w, 12, prop=2, decay=0.7)
    chain = cyclic.chi(cyclic.CyclicTensor(1, [(1.0, (A, B))]))
    assert_chain_matches(chain, chi_dense_oracle((A, B)))


def test_chi_against_dense_oracle_deg2():
    wq = spaces.make_window("zd", 5, 3, dim=1)
    ops = tuple(opalg.random_banded(wq, 20 + j, prop=1, decay=0.8, density=0.8)
                for j in range(3))
    chain = cyclic.chi(cyclic.CyclicTensor(2, [(1.5, ops)]))
    assert_chain_matches(chain, chi_dense_oracle(ops), scale=1.5)


def test_chi_against_dense_oracle_deg3():
    wq = spaces.make_window("zd", 6, 4, dim=1)
    ops = tuple(opalg.random_banded(wq, 30 + j, prop=1, decay=0.8, density=0.9)
                for j in range(4))
    chain = cyclic.chi(cyclic.CyclicTensor(3, [(1.0, ops)]))
    assert_chain_matches(chain, chi_dense_oracle(ops))


def test_chi_block_fiber2_against_dense_oracle(draw_everywhere):
    # every degree on a 1-D window with W = margin = 2 * (degree + 1), so
    # the propagation-2 factors close paths through distinct points (with
    # propagation 1 on a 1-D window every degree >= 2 path repeats a point
    # and the chain is zero); supports reach the window edge
    for degree in range(4):
        W = 2 * (degree + 1)
        wq = spaces.make_window("zd", W, W, dim=1)
        ops = tuple(draw_everywhere(wq, (40, degree, j), prop=2, decay=0.8,
                                    density=0.9, fiber=2)
                    for j in range(degree + 1))
        chain = cyclic.chi(cyclic.CyclicTensor(degree, [(1.0, ops)]))
        assert max((abs(v) for _, v in chain.terms()), default=0.0) > 1e-6
        assert_chain_matches(chain, chi_dense_oracle(ops, fiber=2))


@pytest.mark.parametrize("degree", [1, 2])
def test_chi_tree_against_dense_oracle(draw_everywhere, degree):
    # tree3 W=3 (22 points): margin 3 allows degree 2 with propagation-1
    # factors.  A tree has no triangles, so every degree-2 path repeats a
    # point and the chain is exactly empty although the join finds raw paths.
    wt = spaces.make_window("tree3", 3, 3)
    ops = tuple(draw_everywhere(wt, (50, degree, j), prop=1, decay=0.8,
                                density=0.9)
                for j in range(degree + 1))
    assert len(cyclic._paths(ops)[1]) > 0
    chain = cyclic.chi(cyclic.CyclicTensor(degree, [(1.0, ops)]))
    if degree == 2:
        assert len(chain) == 0
    else:
        assert max(abs(v) for _, v in chain.terms()) > 1e-6
    assert_chain_matches(chain, chi_dense_oracle(ops))


def test_sort_sign():
    rows = [np.array(list(itertools.permutations(range(m))), dtype=np.int64)
            for m in range(1, 5)]
    rng = np.random.default_rng(7)
    rows += [rng.integers(-3, 3, size=(200, m)) * 2 ** 40 for m in range(1, 5)]
    for tuples in rows:
        ordered, sign, distinct = ufchain.sort_sign(tuples)
        for row, o, s, d in zip(tuples, ordered, sign, distinct):
            assert list(o) == sorted(row)
            assert s == _perm_sign_oracle(np.argsort(row, kind="stable"))
            assert d == (len(set(row)) == len(row))


def _sort_sign_reference(tuples):
    # np.sort of each row, the parity of its strict inversions, adjacent
    # sorted entries compared
    inversions = np.zeros(len(tuples), dtype=np.int64)
    for i, j in itertools.combinations(range(tuples.shape[1]), 2):
        inversions += tuples[:, i] > tuples[:, j]
    ordered = np.sort(tuples, axis=1)
    distinct = np.all(ordered[:, 1:] != ordered[:, :-1], axis=1)
    return ordered, 1 - 2 * (inversions % 2), distinct


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_sort_sign_matches_reference(m, dtype):
    # random rows with many ties, int32 as the join's rows may be, and no
    # rows at all: all three outputs equal the reference, dtypes included
    rng = np.random.default_rng((m, np.dtype(dtype).itemsize))
    cases = [rng.integers(0, 4, size=(500, m)).astype(dtype),
             rng.integers(-2 ** 31, 2 ** 31, size=(300, m)).astype(dtype),
             np.empty((0, m), dtype=dtype)]
    for tuples in cases:
        got = ufchain.sort_sign(tuples)
        for g, r in zip(got, _sort_sign_reference(tuples)):
            assert g.dtype == r.dtype and g.shape == r.shape
            assert g.tobytes() == r.tobytes()
        assert got[0].dtype == dtype


def reversed_rows(A):
    """A with each CSR row stored in descending column order, as sparse
    products may leave it unsorted."""
    m = A.mat.copy()
    for r in range(m.shape[0]):
        a, b = m.indptr[r], m.indptr[r + 1]
        m.indices[a:b] = m.indices[a:b][::-1]
        m.data[a:b] = m.data[a:b][::-1]
    m.has_sorted_indices = False
    return opalg.BandedOperator(A.window, m, A.fiber)


@pytest.mark.parametrize("fiber", [1, 2])
def test_closing_entries_match_indexing(draw_everywhere, fiber):
    # _closing_entries calls scipy's private CSR sampling kernel; a scipy
    # that renames it or changes what it returns must fail here
    wq = spaces.make_window("zd", 4, 4, dim=1)
    A = draw_everywhere(wq, (61, fiber), prop=1, density=0.6, fiber=fiber)
    M = A.mat.shape[0]
    rng = np.random.default_rng(fiber)
    rows = rng.integers(0, M, size=3 * M)
    cols = rng.integers(0, M, size=3 * M)
    dense = A.mat.toarray()
    where = f"scipy {scipy.__version__}: csr_sample_values"
    for B in (A, reversed_rows(A)):
        assert B.mat.has_sorted_indices == (B is A)
        # many samples bisect sorted rows; one sample (under nnz / 10)
        # scans them, as it scans unsorted rows
        for r, c in ((rows, cols), (rows[:1], cols[:1])):
            got = cyclic._closing_entries(B.mat, r, c)
            assert got.dtype == np.complex128, where
            assert np.array_equal(got, dense[r, c]), where
            assert np.array_equal(got, np.asarray(B.mat[r, c]).ravel()), where
        got = cyclic._closing_entries(B.mat, rows, cols)
        assert (got == 0).any() and (got != 0).any()   # misses and hits
        empty = cyclic._closing_entries(B.mat, rows[:0], cols[:0])
        assert empty.shape == (0,) and empty.dtype == np.complex128, where


@pytest.mark.parametrize("fiber", [1, 2])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_paths_against_dense_products(draw_everywhere, degree, fiber, monkeypatch):
    # the join itself, before antisymmetrization cancels anything, on
    # operators whose rows are stored unsorted; the operator drawn with
    # density 1 at each position in turn is the densest, and the join closes
    # there and rolls the points back to the tensor's own order
    wq = spaces.make_window("zd", 4, 4, dim=1)
    closed_in = []
    lookup = cyclic._closing_entries
    monkeypatch.setattr(cyclic, "_closing_entries",
                        lambda A, r, c: closed_in.append(A) or lookup(A, r, c))
    for dense in [None] + list(range(degree + 1)):
        ops = tuple(reversed_rows(draw_everywhere(
            wq, (60, degree, fiber, j), prop=1, decay=0.8,
            density=1.0 if j == dense else 0.7, fiber=fiber))
            for j in range(degree + 1))
        closed_in.clear()
        tt, vv = cyclic._paths(ops)
        if dense is not None:
            assert len(closed_in) == 1 and closed_in[0] is ops[dense]
            assert all(A.mat.nnz < ops[dense].mat.nnz
                       for j, A in enumerate(ops) if j != dense)
        assert tt.dtype == np.int64 and tt.shape == (len(vv), degree + 1)
        got = np.zeros((wq.n_points,) * (degree + 1), dtype=np.complex128)
        np.add.at(got, tuple(tt.T), vv)  # one row per fiber index combination
        assert np.abs(got - path_products_dense(ops, fiber)).max() < 1e-12


# sha256 prefixes of _paths' rows and value bits, recorded before the join's
# first step was read off B_1's stored entries: (canonical, product) factors
_PATHS_DIGESTS = {
    (0, 1): ("f6da7e736de45560", "8cb4a447b4c551f2"),
    (0, 2): ("95871c1a12f17dfb", "22757f018b4bca3f"),
    (1, 1): ("53c32e5d3ac92202", "033c4852cbdcaab0"),
    (1, 2): ("fb54e9f12ba353cb", "91d087f7958cac3f"),
    (2, 1): ("4892b1ec459725d9", "7204c8147f2bc1b7"),
    (2, 2): ("4a90ef39819eaea1", "fd917fb1d0362680"),
    (3, 1): ("145df6eb08a44a26", "636e6b6aa51df93f"),
    (3, 2): ("af84cf1b0a5e1db8", "a317b6d2dae9da0b"),
}


def _paths_digest(ops):
    tt, vv = cyclic._paths(ops)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(tt, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(vv, dtype=np.complex128).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("degree, fiber", list(_PATHS_DIGESTS),
                         ids=[f"deg{d}-fiber{f}" for d, f in _PATHS_DIGESTS])
def test_paths_pinned(draw_everywhere, degree, fiber):
    # the join on canonical draws, and with a product (rows in the order
    # the kernel found them) as the first factor it expands through
    wz = spaces.make_window("zd", 3, 3, dim=2)
    ops = tuple(draw_everywhere(wz, (66, degree, fiber, j), prop=1,
                                decay=0.8, density=0.7, fiber=fiber)
                for j in range(degree + 1))
    dense = draw_everywhere(wz, (67, fiber), prop=2, decay=0.8,
                            density=1.0, fiber=fiber)
    AB = ops[0] @ ops[-1]
    assert not AB.mat.has_sorted_indices
    with_product = (AB,) if degree == 0 else (dense, AB) + ops[2:]
    nnz = [A.mat.nnz for A in with_product]
    assert nnz.index(max(nnz)) == 0     # the join expands through AB first
    assert (_paths_digest(ops), _paths_digest(with_product)
            ) == _PATHS_DIGESTS[degree, fiber]


@pytest.mark.parametrize("fiber", [1, 2])
def test_join_expands_through_the_sparser_factor(fiber, monkeypatch):
    # on (B, B C), as in the middle term of hochschild_b, the join closes in
    # the product and looks up one closing entry per path through B
    wz = spaces.make_window("zd", 6, 3, dim=2)
    B, C = (opalg.random_banded(wz, (65, fiber, j), prop=1, decay=0.8,
                                density=0.5, fiber=fiber) for j in range(2))
    BC = B @ C
    assert BC.mat.nnz > B.mat.nnz
    samples = []
    lookup = cyclic._closing_entries
    monkeypatch.setattr(cyclic, "_closing_entries",
                        lambda A, r, c: samples.append(len(r)) or lookup(A, r, c))
    for ops in ((B, BC), (BC, B)):
        samples.clear()
        cyclic._paths(ops)
        assert samples == [B.mat.nnz]


@pytest.mark.parametrize("fiber", [1, 2])
def test_degree4_paths_and_chain_map(draw_everywhere, fiber):
    # degree 4 is capped only in chi's (n+1)! expansion: the join matches
    # the dense products, and the chain map holds on canonical rows
    wq = spaces.make_window("zd", 3, 3, dim=1)
    ops = tuple(reversed_rows(draw_everywhere(
        wq, (63, fiber, j), prop=1, decay=0.8, density=0.7, fiber=fiber))
        for j in range(5))
    tt, vv = cyclic._paths(ops)
    assert tt.dtype == np.int64 and tt.shape == (len(vv), 5)
    got = np.zeros((wq.n_points,) * 5, dtype=np.complex128)
    np.add.at(got, tuple(tt.T), vv)
    assert np.abs(got - path_products_dense(ops, fiber)).max() < 1e-12
    # five distinct points on a line close a cycle only with hops of 2
    wm = spaces.make_window("zd", 24, 20, dim=1)
    ops = tuple(opalg.random_banded(wm, (64, fiber, j), prop=2, decay=0.8,
                                    density=0.7, fiber=fiber)
                for j in range(5))
    t = cyclic.CyclicTensor(4, [(1.0, ops)])
    assert len(cyclic.chi_arrays(t)[1]) > 0
    assert cyclic.chain_map_check(t) < 1e-9


def test_paths_no_closing_entry():
    # A_0 has no entry at (z_n, z_0) for any path: lookups miss inside a
    # stored row (shift), meet empty rows (projection onto point 0), or an
    # operator with no entries at all (zero operator)
    wq = spaces.make_window("zd", 6, 4, dim=1)
    S = opalg.shift(wq, 0, 1)
    P = opalg.site_projection(wq, 0)
    Z = opalg.BandedOperator(wq, np.zeros((wq.n_points, wq.n_points)))
    for A0 in (S, P, Z):
        for degree in (1, 2):
            ops = (A0,) + (S,) * degree
            tt, vv = cyclic._paths(ops)
            assert tt.shape == (0, degree + 1) and tt.dtype == np.int64
            assert len(vv) == 0
            t, v = cyclic.chi_arrays(cyclic.CyclicTensor(degree, [(1.0, ops)]))
            assert t.shape == (0, degree + 1) and t.dtype == np.int64
            assert len(v) == 0


def test_chi_cyclic_invariance_exact_integer(w):
    for degree in (1, 2):
        for seed in range(10):
            ops = tuple(opalg.random_banded(w, (seed, j), prop=2,
                                            density=0.5, integer=True)
                        for j in range(degree + 1))
            t = cyclic.CyclicTensor(degree, [(1.0, ops)])
            assert cyclic.chi(t).support == cyclic.chi(cyclic.lambda_op(t)).support


def test_chi_margin_precondition():
    wt = spaces.make_window("zd", 16, 2, dim=1)
    ops = tuple(opalg.random_banded(wt, j, prop=2, density=0.5)
                for j in range(2))
    with pytest.raises(MarginError):
        cyclic.chi(cyclic.CyclicTensor(1, [(1.0, ops)]))


def test_chain_map_residual():
    wb = spaces.make_window("zd", 20, 12, dim=1)
    rng = np.random.default_rng(2)
    worst = 0.0
    for degree in (1, 2):
        for _ in range(20):
            ops = tuple(opalg.random_banded(wb, int(rng.integers(2 ** 31)),
                                            prop=2, decay=0.7, density=0.4)
                        for _ in range(degree + 1))
            t = cyclic.CyclicTensor(degree, [(1.0, ops)])
            worst = max(worst, cyclic.chain_map_check(t))
    assert worst < 1e-9


def _chain_map_reference(t):
    # the residual from the public pieces: the boundary of chi(t)'s canonical
    # rows (n+1 times their face sum) against chi(hochschild_b(t)), coalesced
    w, n = t.window, t.degree
    t1, v1 = cyclic.chi_arrays(t)
    bt1, bv1 = ufchain.boundary_arrays(w, n, t1, (n + 1) * v1)
    t2, v2 = cyclic.chi_arrays(cyclic.hochschild_b(t))
    dt, dv = cyclic.coalesce(np.concatenate([bt1, t2]), np.concatenate([bv1, -v2]))
    safe = w.safe_mask[dt].all(axis=1)
    return float(np.abs(dv[safe]).max(initial=0.0))


# (window, degree, prop, fiber, number of terms): 1-D and 2-D windows,
# degrees 1-3, fiber 2, a two-term weighted tensor.  Each window's margin is
# 2 prop(t) of its largest tensor, the least the check accepts; prop 1 on the
# l1 grid closes no triangle, so degree 2 takes prop 2
_CHAIN_MAP_CASES = {
    "zd1-d1": ("zd1", 1, 2, 1, 1), "zd1-d2": ("zd1", 2, 2, 1, 1),
    "zd1-d3": ("zd1", 3, 2, 1, 1), "zd2-d1": ("zd2", 1, 2, 1, 1),
    "zd2-d2": ("zd2", 2, 2, 1, 1), "zd2-d3": ("zd2", 3, 1, 1, 1),
    "zd1-d2-fiber2": ("zd1", 2, 2, 2, 1), "zd2-d2-fiber2": ("zd2", 2, 2, 2, 1),
    "zd2-d2-two-terms": ("zd2", 2, 2, 1, 2),
}


def _chain_map_tensor(name):
    win, degree, prop, fiber, n_terms = _CHAIN_MAP_CASES[name]
    w = (spaces.make_window("zd", 24, 16, dim=1) if win == "zd1"
         else spaces.make_window("zd", 18, 12, dim=2))
    seed = list(_CHAIN_MAP_CASES).index(name)
    terms = [(weight, tuple(opalg.random_banded(w, (70, seed, k, j), prop=prop,
                                                decay=0.8, density=0.7, fiber=fiber)
                            for j in range(degree + 1)))
             for k, weight in enumerate((1.5, -0.5j)[:n_terms])]
    return cyclic.CyclicTensor(degree, terms)


def _flip_first_term(monkeypatch):
    # hochschild_b with the sign of its first term flipped: no longer the
    # boundary the character intertwines
    real = cyclic.hochschild_b

    def wrong_b(t):
        bt = real(t)
        (w0, ops0), *rest = bt.terms
        return cyclic.CyclicTensor(bt.degree, [(-w0, ops0), *rest], bt.tau_power)
    monkeypatch.setattr(cyclic, "hochschild_b", wrong_b)


@pytest.mark.parametrize("name", list(_CHAIN_MAP_CASES))
def test_chain_map_check_matches_reference(name):
    t = _chain_map_tensor(name)
    assert len(cyclic.chi_arrays(t)[1]) > 0
    got = cyclic.chain_map_check(t)
    assert got < 1e-12
    assert abs(got - _chain_map_reference(t)) < 1e-13


@pytest.mark.parametrize("name", list(_CHAIN_MAP_CASES))
def test_chain_map_check_sees_a_wrong_boundary(name, monkeypatch):
    # the b side comes from hochschild_b, not from t's own rows: with one
    # term's sign flipped the residual is large, and equals the reference's
    t = _chain_map_tensor(name)
    _flip_first_term(monkeypatch)
    got, ref = cyclic.chain_map_check(t), _chain_map_reference(t)
    assert got > 1e-3
    assert abs(got - ref) < 1e-13 * max(1.0, ref)


def test_chain_map_check_margin_precondition():
    # prop(t) <= margin < 2 prop(t): chi is defined, the check refuses
    w = spaces.make_window("zd", 24, 7, dim=1)
    ops = tuple(opalg.random_banded(w, 72 + j, prop=2, decay=0.8, density=0.9)
                for j in range(2))
    t = cyclic.CyclicTensor(1, [(1.0, ops)])
    assert t.total_propagation() <= w.margin < 2 * t.total_propagation()
    assert len(cyclic.chi_arrays(t)[1]) > 0
    with pytest.raises(MarginError):
        cyclic.chain_map_check(t)
    with pytest.raises(DegreeError):
        cyclic.chain_map_check(cyclic.CyclicTensor(1, []))


@pytest.mark.parametrize("degree", [1, 2])
def test_character_pipeline_builds_no_scipy_matrix(degree, monkeypatch):
    # draws, products and the join work on the operators' CSR arrays; a
    # scipy matrix is built only when something reads an operator's .mat
    w = spaces.make_window("zd", 14, 12, dim=2)
    init = scipy.sparse.csr_matrix.__init__
    built = []

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(scipy.sparse.csr_matrix, "__init__", counted)
    ops = tuple(opalg.random_banded(w, (80, degree, j), prop=2, decay=0.7,
                                    density=0.3) for j in range(degree + 1))
    t = cyclic.CyclicTensor(degree, [(1.0, ops)])
    assert cyclic.chain_map_check(t) < 1e-9
    assert len(cyclic.chi(t)) > 0
    assert built == []
    ops[0].mat
    assert built == [1]


def test_chain_map_zero_factor(w):
    Z = opalg.BandedOperator(w, np.zeros((w.n_points, w.n_points)))
    A = opalg.random_banded(w, 3, prop=2, decay=0.7)
    t = cyclic.CyclicTensor(1, [(1.0, (A, Z))])
    assert cyclic.chain_map_check(t) == 0.0


def test_b_squared_zero_via_chi(w):
    # b^2 = 0 holds on cyclic-quotient representatives: check chi(b(b t)) = 0
    rng = np.random.default_rng(3)
    for _ in range(10):
        ops = tuple(opalg.random_banded(w, int(rng.integers(2 ** 31)),
                                        prop=1, decay=0.8)
                    for _ in range(4))
        t = cyclic.CyclicTensor(3, [(1.0, ops)])
        bbt = cyclic.hochschild_b(cyclic.hochschild_b(t))
        chain = cyclic.chi(bbt)
        resid = max((abs(v) for _, v in chain.terms()), default=0.0)
        assert resid < 1e-10


def test_idempotent_tensor_chain_map(w):
    e = opalg.diag_indicator(w, lambda lb: lb[0] % 2 == 0)
    t = cyclic.CyclicTensor(1, [(1.0, (e, e))])
    # b(e (x) e) = e^2 - e^2 = 0 and the boundary of chi(e (x) e) vanishes
    assert cyclic.chain_map_check(t) < 1e-14


def test_character_pairing_winding(w):
    J = cochain.Jump(0, 0)
    for k in (1, 2, 3):
        u = opalg.winding_unitary(w, k)
        res = cyclic.character_pairing(J, cyclic.chern1(u, 0))
        assert res.stripped == pytest.approx(-k, abs=1e-10)
        assert res.raw == pytest.approx(-k * 2j * math.pi, abs=1e-9)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_character_pairing_matches_pair_on_chi(degree):
    # the pairing on chi's ordered rows equals pair() on the chain chi builds;
    # phi is a random table on safe tuples of chi's support, so it is nonzero
    w = spaces.make_window("zd", 12, 8, dim=1)
    ops = tuple(opalg.random_banded(w, 50 + j, prop=2, decay=0.8, density=0.9)
                for j in range(degree + 1))
    t = cyclic.CyclicTensor(degree, [(1.0, ops)])
    chain = cyclic.chi(t)
    rows = chain.tuples[w.safe_mask[chain.tuples].all(axis=1)]
    rng = np.random.default_rng(degree)
    picked = rows[rng.choice(len(rows), size=min(40, len(rows)), replace=False)]
    phi = cochain.Table(degree, {tuple(r): complex(rng.normal(), rng.normal())
                                 for r in picked.tolist()})
    expected = cochain.pair(phi, chain)
    got = cyclic.character_pairing(phi, t)
    assert abs(expected) > 1e-6
    assert got.raw == pytest.approx(expected, rel=1e-12)
    assert got.stripped == pytest.approx(expected / (2j * math.pi) ** t.tau_power,
                                         rel=1e-12)
    with pytest.raises(DegreeError):
        cyclic.character_pairing(cochain.Jump(0, 0), cyclic.CyclicTensor(
            degree + 1, [(1.0, ops + (ops[0],))]))


def test_character_pairing_identity_unitary(w):
    res = cyclic.character_pairing(cochain.Jump(0, 0),
                                   cyclic.chern1(opalg.identity(w), 0))
    assert res.raw == 0


def test_degree0_local_trace_normalization(w):
    # the degree-0 character paired with the indicator of the safe points is
    # the sum of e's local traces there: the trace of e compressed to them
    e = opalg.diag_indicator(w, lambda lb: lb[0] % 2 == 0)
    total = suite.demo_degree0(w, e, cochain.Indicator(points=w.safe_points.tolist()))
    P = opalg.safe_projector(w)
    compressed_trace = (P @ e @ P).mat.diagonal().sum()
    assert total == compressed_trace == 9


def test_chi_norm_ratio_window_independent():
    # ||chi(t)||_{inf,n} / prod_i max(||A_i||_op, ||A_i||_{mu,n+1}) stays
    # below a window-independent cap
    caps = {}
    n = 1
    for W in (16, 24, 32):
        wl = spaces.make_window("zd", W, 8, dim=1)
        worst = 0.0
        for seed in range(12):
            ops = tuple(opalg.random_banded(wl, (W, seed, j), prop=2,
                                            decay=0.7, density=0.5)
                        for j in range(2))
            t = cyclic.CyclicTensor(1, [(1.0, ops)])
            num = ufchain.norm_inf_n(cyclic.chi(t), n)
            den = 1.0
            for A in ops:
                den *= max(opalg.op_norm(A), opalg.mu_profile(A, 6).mu_norm(n + 1))
            if den > 0:
                worst = max(worst, num / den)
        caps[W] = worst
    assert caps[32] <= 1.3 * caps[16] + 1e-9


def test_tensor_validation(w):
    A = opalg.random_banded(w, 1, prop=1, decay=0.8)
    with pytest.raises(DegreeError):
        cyclic.CyclicTensor(1, [(1.0, (A,))])
    # degree 4 builds, and joins in chi_arrays; only chi's (n+1)! expansion
    # to ordered tuples is capped
    t4 = cyclic.CyclicTensor(4, [(1.0, (A,) * 5)])
    with pytest.raises(DegreeError):
        cyclic.chi(t4)
    other = spaces.make_window("zd", 8, 4, dim=1)
    B = opalg.identity(other)
    with pytest.raises(DegreeError):
        cyclic.CyclicTensor(1, [(1.0, (A, B))])
