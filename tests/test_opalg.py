"""Operators, norms, dominating-function profiles and the decay estimates."""

import copy
import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from coarselab import opalg, spaces, suite
from coarselab.errors import PreconditionError, WindowError


@pytest.fixture(scope="module")
def w():
    return spaces.make_window("zd", 16, 8, dim=1)


@pytest.fixture(scope="module")
def wsmall():
    return spaces.make_window("zd", 10, 5, dim=1)


def test_shift_matrix_entries(w):
    S = opalg.shift(w, 0, 1)
    for p in range(w.n_points):
        x = w.label(p)[0]
        if x + 1 <= w.W:
            assert S.mat[w.index_of((x + 1,)), p] == 1
    assert S.propagation == 1


def test_shift_isometry_on_safe_sites(w):
    S = opalg.shift(w, 0, 1)
    P = opalg.safe_projector(w)
    core = P @ ((S.adjoint() @ S) - opalg.identity(w)) @ P
    assert opalg.op_norm(core) < 1e-12


@pytest.mark.parametrize("fiber", [1, 3])
def test_diagonal_csr_matches_coo_build(w, fiber):
    # the direct CSR build of the diagonal projections gives the arrays that
    # scipy's COO -> CSR conversion gives, dtypes included
    n = w.n_points * fiber
    for points in (np.arange(w.n_points), np.flatnonzero(w.safe_mask), [5], []):
        idx = (np.asarray(points, dtype=np.int64)[:, None] * fiber
               + np.arange(fiber)).ravel()
        ref = sp.csr_matrix((np.ones(len(idx), dtype=np.complex128), (idx, idx)),
                            shape=(n, n))
        got = opalg._diagonal(w, points, fiber).mat
        for a, b in ((got.indptr, ref.indptr), (got.indices, ref.indices),
                     (got.data, ref.data)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got.has_canonical_format


def test_diag_product(w):
    A = opalg.diag_indicator(w, lambda lb: lb[0] % 2 == 0)
    B = opalg.diag_indicator(w, lambda lb: lb[0] > 0)
    C = A @ B
    for p in range(w.n_points):
        x = w.label(p)[0]
        assert C.mat[p, p] == (1 if (x % 2 == 0 and x > 0) else 0)


def test_propagation_additive(w):
    S = opalg.shift(w, 0, 1)
    assert (S @ S).propagation == 2


def test_adjoint_of_product(w):
    A = opalg.random_banded(w, 1, prop=2, decay=0.7)
    B = opalg.random_banded(w, 2, prop=2, decay=0.7)
    lhs = (A @ B).adjoint()
    rhs = B.adjoint() @ A.adjoint()
    assert opalg.op_norm(lhs - rhs) < 1e-12


def _same_csr(got, ref):
    """The same CSR arrays, index dtype and each row's column order included,
    and the same data bits; got's arrays hold exactly its entries."""
    assert got.shape == ref.shape
    got.check_format(full_check=True)
    assert len(got.data) == len(got.indices) == got.nnz
    for a, b in ((got.indptr, ref.indptr), (got.indices, ref.indices)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got.data.dtype == ref.data.dtype
    assert np.array_equal(got.data.view(np.uint64), ref.data.view(np.uint64))


def _with_int64_indices(A):
    mat = A.mat.copy()
    mat.indptr, mat.indices = mat.indptr.astype(np.int64), mat.indices.astype(np.int64)
    return opalg.BandedOperator(A.window, mat, A.fiber)


def test_product_matches_scipy(w, wsmall, heis, tree):
    # A @ B runs scipy's product kernels without its wrapper: the arrays of
    # A.mat @ B.mat bit for bit, a product's found column order as a factor
    # too, and nothing kept on the product yet
    z2 = spaces.make_window("zd", 6, 3, dim=2)
    draws = [opalg.random_banded(win, (s, 8), prop=2, decay=0.6, fiber=f)
             for win, f in ((w, 1), (z2, 1), (heis, 1), (tree, 1), (wsmall, 2))
             for s in range(3)]
    saw_unsorted = False
    for A, B, C in zip(draws[::3], draws[1::3], draws[2::3]):
        AB = A @ B
        saw_unsorted |= not AB.mat.has_sorted_indices
        for X, Y in ((A, B), (AB, C), (C, AB), (_with_int64_indices(A), B)):
            P = X @ Y
            _same_csr(P.mat, X.mat @ Y.mat)
            assert P._prop is None and P._dist is None and P._norm is None
            assert P.window is A.window and P.fiber == A.fiber
    assert saw_unsorted
    # the output is sized by the bound sum over a_ij of b's row j length:
    # factors with no entries, or whose entries meet only empty rows, bound
    # it by 0; a bound over twice the entries (a density-1 draw squared, a
    # power chain) and one under it (two draws on the 2-D benchmark window)
    for f in (1, 2):
        empty = opalg._diagonal(w, [], f)
        one = opalg.random_banded(w, (9, f), prop=2, decay=0.6, fiber=f)
        for X, Y in ((empty, one), (one, empty), (empty, empty)):
            _same_csr((X @ Y).mat, X.mat @ Y.mat)
    p, q = opalg.site_projection(w, 3), opalg.site_projection(w, 4)
    assert (p @ q).mat.nnz == 0 and p.mat.nnz == q.mat.nnz == 1
    _same_csr((p @ q).mat, p.mat @ q.mat)

    def bound_ratio(X, Y):
        P = X @ Y
        _same_csr(P.mat, X.mat @ Y.mat)
        bound = np.diff(Y.mat.indptr)[X.mat.indices].sum()
        return bound / P.mat.nnz
    D = opalg.random_banded(z2, 4, prop=2, density=1.0)
    assert bound_ratio(D, D) > 4
    A = opalg.random_banded(w, 3, prop=3, decay=0.5)
    P, ratios = A, []
    for _ in range(3):
        ratios.append(bound_ratio(P, A))
        P = P @ A
    assert min(ratios) < 2 < max(ratios)
    z2c = spaces.make_window("zd", 32, 12, dim=2)
    A, B = (opalg.random_banded(z2c, (1, j), prop=2, decay=0.7, density=0.3)
            for j in range(2))
    assert 1.1 < bound_ratio(A, B) < 1.5


def test_product_stores_no_zero(w):
    # [[1, 1], [0, 2]] [[1, 0], [-1, 3]] = [[0, 3], [-2, 6]]: the cancelled
    # entry is not stored; a zero factor gives a product with no entries
    n = w.n_points
    p, q = w.index_of((0,)), w.index_of((1,))

    def op(entries):
        r, c, v = zip(*entries)
        return opalg.BandedOperator(w, sp.csr_matrix((v, (r, c)), shape=(n, n)))
    A = op([(p, p, 1), (p, q, 1), (q, q, 2)])
    B = op([(p, p, 1), (q, p, -1), (q, q, 3)])
    P = A @ B
    _same_csr(P.mat, A.mat @ B.mat)
    assert P.mat.nnz == 3 and np.all(P.mat.data != 0)
    assert P.mat[p, q] == 3 and P.mat[q, p] == -2 and P.mat[q, q] == 6
    zero = opalg.BandedOperator(w, sp.csr_matrix((n, n)))
    for X, Y in ((zero, A), (A, zero)):
        P = X @ Y
        _same_csr(P.mat, X.mat @ Y.mat)
        assert P.mat.nnz == 0 and P.propagation == 0


def test_adjoint_involution(w):
    A = opalg.random_banded(w, 19, prop=2, decay=0.7)
    assert (A.adjoint().adjoint().mat != A.mat).nnz == 0


def test_window_mismatch(w, wsmall):
    A = opalg.identity(w)
    B = opalg.identity(wsmall)
    with pytest.raises(WindowError):
        A @ B


def test_op_norm_identity_and_shift(w):
    assert opalg.op_norm(opalg.identity(w)) == pytest.approx(1.0, abs=1e-10)
    assert opalg.op_norm(opalg.shift(w, 0, 1)) == pytest.approx(1.0, abs=1e-9)


def test_op_norm_against_dense_svd_oracle():
    w = spaces.make_window("zd", 12, 4, dim=1)
    for seed in range(8):
        A = opalg.random_banded(w, seed, prop=3, decay=0.7)
        sv = np.linalg.svd(A.mat.toarray(), compute_uv=False)[0]
        assert sv <= opalg.op_norm(A) <= sv * (1 + 1e-12)


def test_op_norm_near_identity_clustered_spectrum(w):
    # a spectrum clustered near 1, where iterative norm estimates stall: the
    # SVD of the nonzero block must still deliver oracle-level accuracy
    A = opalg.identity(w) + opalg.random_banded(w, 5, prop=2, decay=0.5).scale(0.01)
    sv = np.linalg.svd(A.mat.toarray(), compute_uv=False)[0]
    assert opalg.op_norm(A) == pytest.approx(sv, rel=1e-8)


def _offband_dense(A, R):
    """A's dense matrix with the entries at point distance <= R zeroed: the
    distances are dist_cross's on the scalar indices divided by the fiber."""
    pts = np.arange(A.mat.shape[0]) // A.fiber
    return np.where(A.window.dist_cross(pts, pts) > R, A.mat.toarray(), 0)


@pytest.mark.parametrize("case", ["zd1", "zd2", "heisenberg3", "fiber2", "fiber3"])
def test_mu_profile_upper_certified_against_svd_oracle(case):
    # upper and op are certified upper bounds: never below the LAPACK SVD of
    # the full matrix, with no slack; the sandwich holds with no slack
    if case == "zd1":
        w = spaces.make_window("zd", 32, 16, dim=1)
        ops = [opalg.random_banded(w, (s, 3), prop=3, decay=0.6) for s in range(3)]
        ops.append(ops[0] @ ops[1])
        Rmax = 16
    elif case == "zd2":
        w = spaces.make_window("zd", 8, 4, dim=2)
        ops = [opalg.random_banded(w, s, prop=2, decay=0.6) for s in range(2)]
        Rmax = 4
    elif case == "heisenberg3":
        w = spaces.make_window("heisenberg3", 6, 4)
        ops = [opalg.random_banded(w, 7, prop=2, decay=0.6)]
        Rmax = 2
    elif case == "fiber2":
        w = spaces.make_window("zd", 10, 5, dim=1)
        ops = [opalg.random_banded(w, s, prop=3, decay=0.6, fiber=2)
               for s in range(3)]
        Rmax = 5
    else:
        # fiber 3 with every entry of each 3 x 3 block stored
        w = spaces.make_window("zd", 16, 8, dim=1)
        ops = [opalg.random_banded(w, (3, i), prop=3, decay=0.6, fiber=3,
                                   density=1.0) for i in range(4)]
        Rmax = 6
    for A in ops:
        prof = opalg.mu_profile(A, Rmax)
        assert prof.op >= np.linalg.svd(A.mat.toarray(), compute_uv=False)[0]
        for R in range(Rmax + 1):
            off = _offband_dense(A, R)
            sv = np.linalg.svd(off, compute_uv=False)[0] if off.any() else 0.0
            assert prof.upper[R] >= sv
        assert np.all(prof.lower <= prof.upper)
        assert prof.lower[0] > 0


def test_sparse_norm_path(w, monkeypatch):
    # above DENSE_CUTOFF the norms are the closed-form bracket (largest column
    # norm, Schur test); lower the cutoff so that these operators take it
    ops = [opalg.random_banded(w, (s, 9), prop=3, decay=0.6, fiber=f)
           for f in (1, 2) for s in range(3)]
    dense = [opalg.mu_profile(A, 8) for A in ops]
    monkeypatch.setattr(opalg, "DENSE_CUTOFF", 4)
    for A, pd in zip(ops, dense):
        M = A.mat.toarray()
        sv = np.linalg.svd(M, compute_uv=False)[0]
        col = np.linalg.norm(M, axis=0).max()
        assert col <= sv <= opalg.op_norm(A)
        prof = opalg.mu_profile(A, 8)
        assert prof.op_lower <= sv <= prof.op
        assert prof.op_lower == pytest.approx(col, rel=1e-12)
        for R in range(9):
            off = _offband_dense(A, R)
            assert prof.upper[R] >= np.linalg.svd(off, compute_uv=False)[0]
        assert np.all(prof.lower <= prof.upper)
        # the probes read the same columns on either path
        assert np.allclose(prof.lower, pd.lower, rtol=1e-12, atol=0)


@pytest.mark.parametrize("k", [600, -560])
def test_sparse_norm_bracket_at_float_range_ends(k, wsmall, monkeypatch):
    # above DENSE_CUTOFF the column norm and the Schur cap squared or
    # multiplied unscaled entries: times 2^600 op_lower overflowed to inf,
    # times 2^-560 op and op_lower underflowed to 0.  Taken of the entries
    # times 2^s they bracket the SVD, and they keep the bits of the unscaled
    # formulas in range.
    monkeypatch.setattr(opalg, "DENSE_CUTOFF", 4)
    A = opalg.random_banded(wsmall, 3, prop=2, decay=0.6)
    B = A.scale(2.0 ** k)
    with np.errstate(all="raise"):
        prof = opalg.mu_profile(B, 4)
        sv = np.linalg.svd(B.mat.toarray(), compute_uv=False)[0]
        assert 0 < prof.op_lower <= sv <= prof.op < np.inf
        for R in range(5):
            off = _offband_dense(B, R)
            assert prof.upper[R] >= np.linalg.svd(off, compute_uv=False)[0]
        assert np.all(np.isfinite(prof.upper)) and prof.upper[0] > 0
        # in range the scaling is exact: the scaled profile's bracket and
        # upper, scaled back, are the unscaled operator's bit for bit
        ref = opalg.mu_profile(A, 4)
        a, rows, cols = np.abs(A.mat.data), A.mat.tocoo().row, A.mat.indices
        assert ref.op_lower == np.sqrt(np.bincount(cols, weights=a * a).max())
        assert ref.op == np.sqrt(np.bincount(cols, weights=a).max()
                                 * np.bincount(rows, weights=a).max()) \
            * (1 + (len(a) + 2) * opalg.EPS)
        assert np.ldexp(prof.op, -k) == ref.op
        assert np.ldexp(prof.op_lower, -k) == ref.op_lower
        assert np.array_equal(np.ldexp(prof.upper, -k), ref.upper)


def test_random_banded_integer_fiber2(wsmall):
    A = opalg.random_banded(wsmall, 5, prop=2, fiber=2, integer=True)
    vals = A.mat.data
    assert len(vals) > 0
    assert np.all(vals.real == np.round(vals.real))
    assert np.all(vals.imag == np.round(vals.imag))
    assert np.abs(vals.real).max() <= 3 and np.abs(vals.imag).max() <= 3


@pytest.mark.parametrize("kw", [dict(density=-0.5), dict(density=1.5),
                                dict(density=float("nan")), dict(prop=-1),
                                dict(fiber=0), dict(fiber=-1)],
                         ids=["density-neg", "density-above-1", "density-nan",
                              "prop-neg", "fiber-0", "fiber-neg"])
def test_random_banded_rejects_out_of_range(wsmall, kw):
    args = dict(prop=2, density=0.5, fiber=1) | kw
    with pytest.raises(PreconditionError, match="opalg.random_banded: "):
        opalg.random_banded(wsmall, 1, **args)


@pytest.mark.parametrize("fiber", [1, 2])
@pytest.mark.parametrize("core_only", [True, False])
def test_random_banded_layout_edges(zplane, draw_everywhere, fiber, core_only):
    # density 0 draws nothing and density 1 every candidate pair; either way
    # the CSR arrays are int32 and canonical, as the closing lookup of the
    # character's join bisects canonical rows.  Drawn on the margin-safe
    # core, and on every point through the window's margin-0 twin
    n = zplane.n_points
    pts = zplane.safe_points if core_only else np.arange(n)
    draw = opalg.random_banded if core_only else draw_everywhere
    near = zplane.dist_cross(pts, pts) <= 2
    every = {(int(pts[i]), int(pts[j])) for i, j in zip(*np.nonzero(near))}
    empty = draw(zplane, 7, prop=2, density=0.0, fiber=fiber)
    assert empty.mat.nnz == 0 and empty.propagation == 0
    assert not empty.mat.indptr.any()
    full = draw(zplane, 7, prop=2, density=1.0, fiber=fiber)
    r, c, _ = full.entry_point_pairs()
    assert full.mat.nnz == len(every) * fiber * fiber
    assert set(zip(r.tolist(), c.tolist())) == every
    assert full.propagation == 2
    for A in (empty, full, draw(zplane, 8, prop=2, fiber=fiber)):
        assert A.mat.indptr.dtype == np.int32 == A.mat.indices.dtype
        assert A.mat.has_canonical_format


def _converted(window, mat, fiber):
    """The conversion BandedOperator applies to inputs it does not keep: a
    fresh complex CSR of the window's shape with explicit zeros dropped."""
    n = window.n_points * fiber
    ref = sp.csr_matrix(copy.deepcopy(mat), shape=(n, n), dtype=np.complex128)
    ref.eliminate_zeros()
    return ref


def _same_csr(a, b):
    return (type(a) is type(b) and a.shape == b.shape and a.dtype == b.dtype
            and a.indices.dtype == b.indices.dtype
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data))


@pytest.mark.parametrize("fiber", [1, 2])
def test_banded_operator_input_contract(wsmall, draw_everywhere, fiber):
    A = draw_everywhere(wsmall, 44, prop=2, density=0.6, fiber=fiber)
    B = draw_everywhere(wsmall, 45, prop=1, density=0.6, fiber=fiber)
    unsorted = (A @ B).mat            # sparse products leave rows unsorted
    assert not unsorted.has_sorted_indices
    # a complex CSR of the right shape is kept, its explicit zeros dropped
    for m in (A.mat.copy(), unsorted.copy()):
        m.data[::3] = 0
        ref = _converted(wsmall, m, fiber)
        C = opalg.BandedOperator(wsmall, m, fiber)
        assert C.mat is m and m.nnz == len(ref.data) and (m.data != 0).all()
        assert _same_csr(m, ref)
    # every other input converts as before
    coo = A.mat.tocoo()
    coo.data[::4] = 0
    for inp in (coo, A.mat.toarray(), sp.csr_matrix(A.mat.real),
                unsorted.real, sp.csr_array(unsorted)):
        ref = _converted(wsmall, inp, fiber)
        C = opalg.BandedOperator(wsmall, inp, fiber)
        assert C.mat is not inp and _same_csr(C.mat, ref)


@pytest.mark.parametrize("fiber", [1, 2])
def test_entry_point_pairs_match_coo(wsmall, draw_everywhere, fiber):
    A = draw_everywhere(wsmall, 46, prop=2, density=0.6, fiber=fiber)
    n = wsmall.n_points * fiber
    for C in (A, A @ A, opalg.BandedOperator(wsmall, np.zeros((n, n)), fiber)):
        coo = C.mat.tocoo()
        r, c, d = C.entry_point_pairs()
        assert r.dtype == coo.row.dtype and c.dtype == coo.col.dtype
        assert np.array_equal(r, coo.row // fiber)
        assert np.array_equal(c, coo.col // fiber)
        assert np.array_equal(d, wsmall.dist_many(coo.row // fiber,
                                                  coo.col // fiber))


@pytest.mark.parametrize("cutoff", [opalg.DENSE_CUTOFF, 4])
def test_mu_profile_one_distance_pass(w, monkeypatch, cutoff):
    # a product has no stored propagation; its profile reads the entries'
    # distances once, on the SVD path and on the closed-form one alike
    monkeypatch.setattr(opalg, "DENSE_CUTOFF", cutoff)
    A = opalg.random_banded(w, 47, prop=2, decay=0.7)
    dist_many = spaces.Window.dist_many
    calls = []

    def counted(self, ii, jj):
        calls.append(len(ii))
        return dist_many(self, ii, jj)
    monkeypatch.setattr(spaces.Window, "dist_many", counted)
    AA = A @ A
    prof = opalg.mu_profile(AA, 6)
    assert calls == [AA.mat.nnz]
    assert AA.propagation == int(AA.entry_point_pairs()[2].max())
    assert prof.upper[AA.propagation:].max() == 0 < prof.upper[0]
    # later reads get the kept distances, read-only, with no second pass
    assert calls == [AA.mat.nnz] and not AA.entry_point_pairs()[2].flags.writeable


def _unpruned_profile(A, Rmax):
    """mu_profile with every probe SVD run: per probe, its columns and rows
    sliced from the block, each row's distance to the support from
    dist_cross, one stacked SVD over all its radii."""
    w, f = A.window, A.fiber
    block, rows, cols = opalg._compress(A.mat)
    rpts, cpts = rows // f, cols // f
    sparse = sp.issparse(block)
    _, pcol, dist = A.entry_point_pairs()
    radii = range(min(Rmax + 1, A.propagation))
    raw = np.zeros(Rmax + 1)
    if not sparse:
        d = w.dist_cross(rpts, cpts)
        op_lower = opalg._dense_sigma(block)
        op = op_lower * (1 + block.size * opalg.EPS)
        for R in radii:
            raw[R] = opalg._dense_norm2(np.where(d > R, block, 0))
    else:
        r, c = opalg._csr_rows(A.mat), A.mat.indices
        a = np.abs(A.mat.data)
        op_lower = float(np.sqrt(np.bincount(c, weights=a * a).max()))
        op = opalg._schur_cap(r, c, a)
        for R in radii:
            keep = dist > R
            raw[R] = opalg._schur_cap(r[keep], c[keep], a[keep])
        block = block.tocsc()
    upper = np.minimum(op, np.maximum.accumulate(raw[::-1])[::-1])
    lower = np.zeros(Rmax + 1)
    supports = list(opalg._probe_subsets(w))
    if f == 1:
        # the floor of the scaled entries, as in mu_profile
        vals = block.data if sparse else block
        s = -int(np.frexp(max(np.abs(vals.real).max(initial=0.0),
                              np.abs(vals.imag).max(initial=0.0)))[1])
        absdata2 = np.ldexp(np.abs(A.mat.data), s) ** 2
        for R in radii:
            m = dist > R
            mass = np.bincount(pcol[m], weights=absdata2[m], minlength=w.n_points)
            lower[R] = np.ldexp(np.sqrt(mass.max()), -s)
    else:
        supports = [[p] for p in np.unique(cpts)] + supports
    matrices = 0
    for L in supports:
        member = np.zeros(w.n_points, dtype=bool)
        member[L] = True
        cols_L = block[:, member[cpts]]
        if sp.issparse(cols_L):
            cols_L = cols_L.toarray()
        nz = np.flatnonzero(np.any(cols_L != 0, axis=1))
        dL = w.dist_cross(rpts[nz], L).min(axis=1)
        Rs = np.arange(min(Rmax + 1, int(dL.max(initial=0))))
        if len(Rs) == 0:
            continue
        matrices += len(Rs)
        beyond = (dL > Rs[:, None])[:, :, None]
        sigma = np.linalg.svd(np.where(beyond, cols_L[nz], 0), compute_uv=False)
        lower[Rs] = np.maximum(lower[Rs], sigma[:, 0])
    return upper, lower, op, op_lower, matrices


def _decay_items(w, seed, prop=2):
    """The decay checks' operators: a draw, a product, a power and a Neumann
    partial sum."""
    A = opalg.random_banded(w, (seed, 1), prop=prop, decay=0.5)
    B = opalg.random_banded(w, (seed, 2), prop=prop, decay=0.5)
    P = A @ A @ A
    S = Q = opalg.identity(w, A.fiber)
    for _ in range(4):
        Q = Q @ B.scale(0.04)
        S = S + Q
    return [A, A @ B, P, S]


def _far_tiny(A, cut=1, factor=1e-170):
    """A with the entries at point distance > cut scaled by factor: their
    squares underflow next to the others'."""
    _, _, d = A.entry_point_pairs()
    mat = A.mat.copy()
    mat.data[d > cut] *= factor
    return opalg.BandedOperator(A.window, mat, A.fiber)


# Each case's probe SVDs run, summed over its operators: the skip decisions
# pinned, not only the lower profile they leave (measured before the probe
# pass built its bound table once).
PROBE_SVDS = {"zd1": 192, "zd2": 108, "heisenberg3": 99, "tree3": 179,
              "fiber2": 101, "closed_form": 127, "tiny": 124, "far_tiny": 513,
              "near_tie": 9}


@pytest.mark.parametrize("case", list(PROBE_SVDS))
def test_mu_profile_matches_unpruned_reference(case, w, wsmall, heis, tree,
                                               monkeypatch):
    # skipping the SVDs that the Frobenius bound rules out leaves the profile
    # the same bit for bit, and the skipped and run SVDs add up to all of them
    if case == "zd1":
        ops = [A for s in range(3) for A in _decay_items(w, s)]
        Rmax = 8
    elif case == "zd2":
        wz = spaces.make_window("zd", 6, 3, dim=2)
        ops = [A for s in range(2) for A in _decay_items(wz, s)[:2]]
        Rmax = 3
    elif case == "heisenberg3":
        ops = [opalg.random_banded(heis, s, prop=1, decay=0.6) for s in range(3)]
        ops.append(ops[0] @ ops[1])
        Rmax = 1
    elif case == "tree3":
        ops = [opalg.random_banded(tree, s, prop=2, decay=0.6) for s in range(3)]
        ops.append(ops[0] @ ops[1])
        Rmax = 1
    elif case == "fiber2":
        ops = [opalg.random_banded(wsmall, (s, 4), prop=3, decay=0.6, fiber=2)
               for s in range(3)]
        ops.append(ops[0] @ ops[1])
        Rmax = 5
    elif case == "closed_form":
        monkeypatch.setattr(opalg, "DENSE_CUTOFF", 4)
        ops = [opalg.random_banded(w, (s, 5), prop=3, decay=0.6, fiber=f)
               for f in (1, 2) for s in range(2)]
        Rmax = 8
    elif case == "tiny":
        ops = [A.scale(1e-170) for A in _decay_items(w, 3)]
        ops += [opalg.random_banded(wsmall, 6, prop=3, decay=0.6,
                                    fiber=2).scale(1e-170)]
        Rmax = 5
    elif case == "far_tiny":
        ops = [_far_tiny(A) for A in _decay_items(w, 4, prop=4)]
        ops.append(_far_tiny(opalg.random_banded(w, 7, prop=4, decay=0.6,
                                                 fiber=2)))
        Rmax = 8
    else:
        # one entry x at (-4, -5): the probes on -5 see the 1 x 1 matrix [x].
        # For these x its Frobenius norm rounds below the singleton floor and
        # (with the LAPACK they were picked on) its SVD above it, so
        # only the margin keeps those SVDs
        n = w.n_points
        col, row = w.index_of((-5,)), w.index_of((-4,))
        ops = [opalg.BandedOperator(w, sp.csr_matrix(([x], ([row], [col])),
                                                     shape=(n, n)))
               for x in (-0.9087020854424418 + 1.5959965985692264j,
                         -0.5255281949282995 - 0.4085718534159908j,
                         1.429374484705569 + 0.8771558747518804j)]
        Rmax = 2
    skips = svds = 0
    for A in ops:
        upper, lower, op, op_lower, matrices = _unpruned_profile(A, Rmax)
        prof = opalg.mu_profile(A, Rmax)
        assert np.array_equal(prof.upper, upper)
        assert np.array_equal(prof.lower, lower)
        assert prof.op == op and prof.op_lower == op_lower
        assert prof.probe_svds + prof.probe_skips == matrices
        skips += prof.probe_skips
        svds += prof.probe_svds
    assert svds == PROBE_SVDS[case]
    if case == "zd1":
        assert skips > 0


@pytest.mark.parametrize("case", ["huge", "subnormal_square"])
def test_mu_profile_singleton_floor_at_float_range_ends(case, w):
    # the singleton floor squares the entries: scaled by 1e170 the squares
    # overflowed (lower = inf above a finite upper), and a single 1.6e-162
    # entry's square rounded up in the subnormal range (lower > upper)
    if case == "huge":
        A = opalg.random_banded(w, 0, prop=4, decay=0.6).scale(1e170)
        Rmax = 5
    else:
        n = w.n_points
        A = opalg.BandedOperator(w, sp.csr_matrix(
            ([1.6e-162], ([w.index_of((0,))], [w.index_of((2,))])), shape=(n, n)))
        Rmax = 3
    prof = opalg.mu_profile(A, Rmax)
    assert np.all(np.isfinite(prof.lower)) and np.all(np.isfinite(prof.upper))
    assert np.all(prof.lower <= prof.upper)
    assert prof.lower[0] > 0


def _fresh(A):
    """A copy of A with nothing computed on it yet."""
    return opalg.BandedOperator(A.window, A.mat.copy(), A.fiber)


_PARTS = ("op", "op_lower", "upper", "lower", "probe_svds", "probe_skips")


def _same_part(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("case", ["zd1", "fiber2", "closed_form"])
def test_mu_profile_lazy_reads_match_eager(case, w, wsmall, monkeypatch):
    # a profile computes each part on its first read; read alone or in either
    # order, every part equals the one read with all others, bit for bit
    if case == "zd1":
        ops = _decay_items(w, 5)
        Rmax = 8
    elif case == "fiber2":
        ops = [opalg.random_banded(wsmall, (s, 6), prop=3, decay=0.6, fiber=2)
               for s in range(2)]
        ops.append(ops[0] @ ops[1])
        Rmax = 5
    else:
        monkeypatch.setattr(opalg, "DENSE_CUTOFF", 4)
        ops = [opalg.random_banded(w, (s, 7), prop=3, decay=0.6, fiber=f)
               for f in (1, 2) for s in range(2)]
        Rmax = 8
    for A in ops:
        ref = opalg.mu_profile(_fresh(A), Rmax)
        eager = {part: getattr(ref, part) for part in _PARTS}
        for part in _PARTS:
            prof = opalg.mu_profile(_fresh(A), Rmax)
            assert _same_part(getattr(prof, part), eager[part])
            # nothing else was computed on the way ("norm": the operator's
            # bracket, which op, op_lower and upper read)
            computed = {"upper", "_probes"} & set(vars(prof))
            if prof._A._norm is not None:
                computed.add("norm")
            assert computed == {"op": {"norm"}, "op_lower": {"norm"},
                                "upper": {"norm", "upper"}}.get(part, {"_probes"})
        for order in (("lower", "upper"), ("upper", "lower")):
            prof = opalg.mu_profile(_fresh(A), Rmax)
            for part in order + _PARTS:
                assert _same_part(getattr(prof, part), eager[part])
        for part in ("upper", "lower"):
            with pytest.raises(ValueError):
                getattr(ref, part)[0] = 0.0     # the kept arrays are read-only
        # the profile's op is op_norm's, bit for bit, on either path
        B = _fresh(A)
        assert opalg.mu_profile(B, Rmax).op == opalg.op_norm(B) == eager["op"]
        assert opalg.op_norm(_fresh(A)) == eager["op"]


def _floor_items(win, seed, fiber):
    """A slowly decaying draw, its square and the draw plus a faint one of
    longer reach, whose decay shells beat op_lower; and the identity plus a
    small draw, where op_lower wins."""
    A = opalg.random_banded(win, (seed, fiber), prop=3, decay=0.9, fiber=fiber)
    B = opalg.random_banded(win, (seed, fiber, 1), prop=2, decay=0.5, fiber=fiber)
    C = opalg.random_banded(win, (seed, fiber, 2), prop=5, decay=0.9, fiber=fiber)
    return [A, A @ A, A + C.scale(1e-4), opalg.identity(win, fiber) + B.scale(0.02)]


def _exact_shell_ratio(prof, n):
    """max over R >= 1 of lower[R] * R^n over op_lower, from the full pass."""
    shells = prof.lower[1:] * opalg._radius_powers(prof.Rmax, n)
    return shells.max(initial=0.0) / prof.op_lower


def _check_mu_norm_lower(A, Rmax, branches):
    """mu_norm_lower of a fresh profile of A, for n = 1, 2, 3, against op_lower
    and the full pass's lower of another: the same float, with no probe pass
    where the tail gate (shell_ratio_upper < 1) fires, and with lower kept
    and the full pass's where it does not.  Counts each branch, and the
    norms where a shell binds, in branches."""
    full = opalg.mu_profile(_fresh(A), Rmax)
    eager = {part: getattr(full, part) for part in _PARTS}
    for n in (1, 2, 3):
        ref = opalg._decay_norm(full.op_lower, full.lower, n)
        prof = opalg.mu_profile(_fresh(A), Rmax)
        assert prof.mu_norm_lower(n).hex() == ref.hex()
        # the upper bound of the shell ratio needs no probe pass
        assert prof.shell_ratio_upper(n) >= _exact_shell_ratio(full, n)
        if prof.shell_ratio_upper(n) < 1:
            branches["gate"] += 1
            assert "_probes" not in vars(prof)
            # the gate never fires where a shell binds
            assert ref == full.op_lower
        else:
            branches["full"] += 1
            assert _same_part(vars(prof)["_probes"][0], eager["lower"])
        branches["binds"] += ref > full.op_lower
        for part in _PARTS:
            assert _same_part(getattr(prof, part), eager[part])
        # read after lower, the norm is the same
        assert prof.mu_norm_lower(n).hex() == ref.hex()


@pytest.mark.parametrize("fiber", [1, 2])
@pytest.mark.parametrize("cutoff", [opalg.DENSE_CUTOFF, 4])
def test_mu_norm_lower_floored_pass_matches_full(fiber, cutoff, wsmall,
                                                 monkeypatch):
    # mu_norm_lower is op_lower, the floor of the norm, with no probe pass
    # where the tail gate fires, and reads the full pass otherwise; both
    # branches occur, and both give op_lower against the full pass's lower
    monkeypatch.setattr(opalg, "DENSE_CUTOFF", cutoff)
    branches = {"gate": 0, "full": 0, "binds": 0}
    for seed in range(3):
        for A in _floor_items(wsmall, seed, fiber):
            _check_mu_norm_lower(A, 5, branches)
    assert min(branches.values()) > 0


@pytest.mark.parametrize("top", [2.0 ** -1020, 2.0 ** 1000],
                         ids=["tiny", "huge"])
def test_mu_norm_lower_gate_at_float_range_ends(top, wsmall):
    # operators scaled to a norm near 2^-1020, where op_lower / R^n is
    # subnormal, or near 2^1000: the gate still gives the full pass's float
    # and never fires where a shell binds, and both branches occur
    branches = {"gate": 0, "full": 0, "binds": 0}
    for fiber in (1, 2):
        for seed in range(2):
            for A in _floor_items(wsmall, seed, fiber):
                A = A.scale(top / opalg.op_norm(_fresh(A)))
                if top < 1:
                    q = opalg.mu_profile(_fresh(A), 5).op_lower / 8.0
                    assert 0 < q < np.finfo(float).tiny
                _check_mu_norm_lower(A, 5, branches)
    assert min(branches.values()) > 0


def test_op_norm_and_profile_share_one_svd(w, monkeypatch):
    A = opalg.random_banded(w, 48, prop=3, decay=0.6)
    svd = np.linalg.svd
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    op = opalg.op_norm(A)
    prof = opalg.mu_profile(A, 6)
    assert prof.op == op and opalg.op_norm(A) == op
    assert calls == [opalg._compress(A.mat)[0].shape]


@pytest.mark.parametrize("cutoff", [600, 4])
def test_op_norm_is_the_profile_op_on_products(cutoff, monkeypatch):
    # op_norm and a profile's op read one bracket, so they agree bit for bit,
    # also above the cutoff on products, whose CSR rows are not sorted (a
    # Schur test summing the entries in another order rounds differently)
    monkeypatch.setattr(opalg, "DENSE_CUTOFF", cutoff)
    w = spaces.make_window("zd", 32, 16, dim=1)
    for s in range(6):
        A = opalg.random_banded(w, (0, 7, s), prop=3, decay=0.6)
        for X in (A @ A, A.adjoint() @ A):
            assert opalg.op_norm(_fresh(X)) == opalg.mu_profile(_fresh(X), 16).op


@pytest.mark.parametrize("cutoff", [600, 4])
def test_op_norm_compresses_once(cutoff, w, monkeypatch):
    monkeypatch.setattr(opalg, "DENSE_CUTOFF", cutoff)
    compress = opalg._compress
    calls = []

    def counted(mat):
        calls.append(mat.shape)
        return compress(mat)
    monkeypatch.setattr(opalg, "_compress", counted)
    A = opalg.random_banded(w, 49, prop=3, decay=0.6)
    op = opalg.op_norm(A)
    assert opalg.op_norm(A) == op and len(calls) == 1
    # a profile compresses for its own parts; its op is the kept bracket
    assert opalg.mu_profile(A, 6).op == op and len(calls) == 2


# np.linalg.svd calls (and the matrices they factor: a probe stacks its
# radii into one call) in check_product_estimate on the decay workload's
# product item (65 points, prop 3, Rmax 16).  Profiles that compute every
# part when made take PRODUCT_SVDS_EAGER (measured on such an implementation);
# lazy ones skip the product's op norm and off-band norms and the factors'
# probes.
PRODUCT_SVDS_EAGER = {"calls": 96, "matrices": 133}
PRODUCT_SVDS_LAZY = {"calls": 34, "matrices": 42}


def test_product_estimate_svd_count(monkeypatch):
    w = spaces.make_window("zd", 32, 16, dim=1)
    A = opalg.random_banded(w, (1, 0), prop=3, decay=0.6)
    B = opalg.random_banded(w, (1, 1), prop=3, decay=0.6)
    svd = np.linalg.svd
    counts = {"calls": 0, "matrices": 0}

    def counted(a, *args, **kwargs):
        counts["calls"] += 1
        counts["matrices"] += int(np.prod(a.shape[:-2]))
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    assert opalg.check_product_estimate(A, B, 16).passed
    n = dict(counts)
    # what the check reads: op and upper of A and B (one SVD plus one per
    # radius below the propagation each), lower of AB (its probe SVDs)
    assert n["matrices"] == (2 + min(17, A.propagation) + min(17, B.propagation)
                             + opalg.mu_profile(A @ B, 16).probe_svds)
    assert n == PRODUCT_SVDS_LAZY
    assert all(n[k] < PRODUCT_SVDS_EAGER[k] for k in n)


# np.linalg.svd calls (and the matrices they factor) in one neumann_inverse
# on the decay workload's window (65 points, B of propagation 2 drawn at
# (13, n, 0), Rmax 16), for each n.  The inverse's tail bound times R^n lies
# below op_lower at every radius (shell_ratio_upper < 1), so mu_norm_lower
# runs no probe pass; reading the full probe pass instead makes 33, 35 and 34
# calls (37, 46 and 48 matrices) for n = 1, 2, 3.
NEUMANN_SVDS = {"calls": 4, "matrices": 4}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_neumann_svd_count(n, monkeypatch):
    w = spaces.make_window("zd", 32, 16, dim=1)
    B = opalg.random_banded(w, (13, n, 0), prop=2, decay=0.5)
    B = B.scale(0.8 / (2 ** (n + 1) * 5) / opalg.op_norm(B))
    svd = np.linalg.svd
    counts = {"calls": 0, "matrices": 0}

    def counted(a, *args, **kwargs):
        counts["calls"] += 1
        counts["matrices"] += int(np.prod(a.shape[:-2]))
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    passes = []
    probe_pass = opalg.MuProfile._probes.func

    def recorded(self):
        passes.append(self)
        return probe_pass(self)
    monkeypatch.setattr(opalg.MuProfile, "_probes", property(recorded))
    S, rep = opalg.neumann_inverse(B, n)
    assert rep.passed
    # what the report reads: op of B (one SVD), upper of B (one per radius
    # below its propagation) and op of the inverse
    assert counts["matrices"] == 2 + min(17, B.propagation)
    assert counts == NEUMANN_SVDS
    # no probe pass ran, and the norm is the full pass's
    assert passes == []
    full = opalg.mu_profile(_fresh(S), 16)
    assert rep.measured.hex() == opalg._decay_norm(full.op_lower, full.lower,
                                                   n).hex()


def _neumann_reference(B, n, tol=1e-13):
    """S from the sparse loop S = S + P, P = P @ B over BandedOperators, and
    the report's fields with measured read off the full probe pass."""
    q = opalg.op_norm(B)
    S = P = opalg.identity(B.window, B.fiber)
    terms = 0
    while q > 0 and (q ** (terms + 1)) / (1 - q) >= tol:
        P = P @ B
        S = S + P
        terms += 1
    tail = (q ** (terms + 1)) / (1 - q) if q > 0 else 0.0
    Rmax = B.window.margin
    prof_S = opalg.mu_profile(S, Rmax)
    nB = opalg.mu_profile(B, Rmax).mu_norm(n)
    measured = opalg._decay_norm(prof_S.op_lower, prof_S.lower, n)
    bound = max(prof_S.op, 1 + nB + nB / (1 - q))
    slack = tail * (max(Rmax, 1) ** n) + 1e-9 * (1 + bound)
    return S, {"measured": measured, "bound": bound, "op_inverse": prof_S.op,
               "terms": terms, "tail": tail, "slack": slack,
               "passed": measured <= bound + slack}, prof_S


def _neumann_cases(w, wsmall):
    """(B, n): criterion 07's fiber-1 draws, fiber-2 draws, a product (CSR
    rows unsorted), zero and a small shift."""
    def scaled(B, n):
        return B.scale(0.8 / (2 ** (n + 1) * 5) / opalg.op_norm(B))
    w07 = spaces.make_window("zd", 32, 16, dim=1)
    cases = []
    for n in (1, 2, 3):
        cases += [(scaled(opalg.random_banded(w07, (suite.SEED + 6, n, i), prop=2,
                                              decay=0.5), n), n)
                  for i in range(0, 50, 10)]
        cases.append((scaled(opalg.random_banded(
            wsmall, (21, n, 2), prop=2, decay=0.5, fiber=2), n), n))
        X = opalg.random_banded(w, (21, n, 3), prop=2, decay=0.6)
        cases.append((scaled(X @ X, n), n))
    cases.append((opalg.BandedOperator(w, sp.csr_matrix((w.n_points,) * 2)), 2))
    cases.append((opalg.shift(w, 0, 1).scale(0.005), 2))
    return cases


def _bits(S):
    return S.mat.toarray().view(np.uint64)


def test_neumann_series_matches_sparse_loop(w, wsmall):
    # S summed in place on one pattern has the sparse loop's entries bit for
    # bit, every report field is the reference's, and the SVD-free shell
    # ratio lies at or above the exact one (both below 1: op_lower binds)
    saw_unsorted = False
    for B, n in _neumann_cases(w, wsmall):
        saw_unsorted |= not B.mat.has_sorted_indices
        S_ref, ref, prof_ref = _neumann_reference(_fresh(B), n)
        S, rep = opalg.neumann_inverse(_fresh(B), n)
        assert np.array_equal(_bits(S), _bits(S_ref))
        assert S.mat.has_canonical_format
        fields = dataclasses.asdict(rep)
        ratio = fields.pop("shell_ratio_upper")
        assert {k: float(v).hex() for k, v in fields.items()} == \
            {k: float(v).hex() for k, v in ref.items()}
        assert _exact_shell_ratio(prof_ref, n) <= ratio < 1
        if not B.mat.nnz:
            assert rep.terms == 0
            assert np.array_equal(S.mat.toarray(), np.eye(w.n_points))
    assert saw_unsorted


def test_mu_profile_shift(w):
    S = opalg.shift(w, 0, 1)
    prof = opalg.mu_profile(S, 6)
    assert prof.upper[0] == pytest.approx(1.0, abs=1e-9)
    assert all(prof.upper[R] == 0 for R in range(1, 7))


def test_mu_profile_identity(w):
    prof = opalg.mu_profile(opalg.identity(w), 6)
    assert all(prof.upper[R] == 0 for R in range(7))


def test_mu_profile_decaying(w):
    A = opalg.random_banded(w, 9, prop=8, decay=0.5, density=1.0)
    prof = opalg.mu_profile(A, 8)
    # measured upper profile decays roughly geometrically
    assert prof.upper[6] <= prof.upper[2] * 0.5 ** 2 * 4


def test_mu_profile_sandwich_and_monotone(w):
    for seed in range(5):
        A = opalg.random_banded(w, seed, prop=4, decay=0.6)
        prof = opalg.mu_profile(A, 8)
        assert np.all(prof.lower <= prof.upper)
        assert np.all(np.diff(prof.upper) <= 1e-12)
        assert np.all(np.diff(prof.lower) <= 1e-12)
        assert np.all(prof.upper <= prof.op + 1e-12)


def test_mu_upper_certifies_probes(w):
    # for every probe support L and radius R the compressed norm stays below
    # the certified dominating value
    rng = np.random.default_rng(2)
    A = opalg.random_banded(w, 31, prop=4, decay=0.6)
    prof = opalg.mu_profile(A, 6)
    dense = A.mat.toarray()
    pts = np.arange(w.n_points)
    for _ in range(40):
        L = rng.choice(pts, size=rng.integers(1, 6), replace=False)
        dL = w.dist_cross(pts, L).min(axis=1)
        for R in range(7):
            sub = dense[np.ix_(dL > R, L)]
            if sub.size == 0:
                continue
            assert np.linalg.norm(sub, 2) <= prof.upper[R] + 1e-10


def test_mu_profile_fiber2_sandwich(wsmall):
    A = opalg.random_banded(wsmall, 71, prop=3, decay=0.6, fiber=2)
    prof = opalg.mu_profile(A, 5)
    assert np.all(prof.lower <= prof.upper)
    assert np.all(np.diff(prof.upper) <= 1e-12)
    # dense oracle for singleton block-column probes
    dense = A.mat.toarray()
    f = 2
    pts = np.arange(wsmall.n_points)
    for p in range(wsmall.n_points):
        dcol = wsmall.dist_cross(pts, [p])[:, 0]
        for R in range(6):
            rows = np.flatnonzero(dcol > R)
            if len(rows) == 0:
                continue
            take = np.concatenate([np.arange(r * f, (r + 1) * f) for r in rows])
            sub = dense[np.ix_(take, np.arange(p * f, (p + 1) * f))]
            if sub.size:
                assert np.linalg.norm(sub, 2) <= prof.upper[R] + 1e-10


def test_mu_norm_examples(w):
    S = opalg.shift(w, 0, 1)
    assert opalg.mu_profile(S, 6).mu_norm(3) == pytest.approx(1.0, abs=1e-9)
    assert opalg.mu_profile(opalg.identity(w), 6).mu_norm(5) == pytest.approx(1.0)
    A = opalg.random_banded(w, 3, prop=6, decay=0.5, density=1.0)
    prof = opalg.mu_profile(A, 8)
    norms = [prof.mu_norm(n) for n in range(9)]
    assert all(np.isfinite(x) for x in norms)
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))
    assert norms[8] > norms[1]


def test_product_estimate_shift_and_identity(w):
    S = opalg.shift(w, 0, 1)
    tab = opalg.check_product_estimate(S, S, 8)
    assert tab.passed
    for row in tab.rows:
        if row.R >= 4:
            assert row.lhs == 0 and row.rhs == 0
    tab2 = opalg.check_product_estimate(opalg.identity(w),
                                        opalg.random_banded(w, 4, prop=3,
                                                            decay=0.6), 8)
    assert tab2.passed


def test_product_estimate_random(w):
    for seed in range(5):
        A = opalg.random_banded(w, (seed, 0), prop=3, decay=0.6)
        B = opalg.random_banded(w, (seed, 1), prop=3, decay=0.6)
        assert opalg.check_product_estimate(A, B, 8).passed


def test_mu_norm_submultiplicative_bound(w):
    # ||AB||_{mu,n} <= ||A|| 2 2^n ||B||_{mu,n} + 2^n ||A||_{mu,n}
    #                  (||B|| + 2 2^n ||B||_{mu,n}),
    # with the certified-lower norm on the left and certified-upper on the right
    for n in (1, 2):
        for seed in range(4):
            A = opalg.random_banded(w, (seed, 0, n), prop=3, decay=0.6)
            B = opalg.random_banded(w, (seed, 1, n), prop=3, decay=0.6)
            pa = opalg.mu_profile(A, 8)
            pb = opalg.mu_profile(B, 8)
            pab = opalg.mu_profile(A @ B, 8)
            lhs = pab.mu_norm_lower(n)
            na = pa.mu_norm(n)
            nb = pb.mu_norm(n)
            rhs = pa.op * 2 * 2 ** n * nb + 2 ** n * na * (pb.op + 2 * 2 ** n * nb)
            assert lhs <= rhs * (1 + 1e-9)


def test_mu_squared_estimate(w):
    # mu_{A^2}(R) <= 5 ||A|| mu_A(R/2) in the certified sandwich sense
    for seed in range(5):
        A = opalg.random_banded(w, seed + 50, prop=3, decay=0.6)
        prof = opalg.mu_profile(A, 8)
        prof2 = opalg.mu_profile(A @ A, 8)
        for R in range(0, 9, 2):
            assert prof2.lower[R] <= \
                5 * prof.op * prof.upper[R // 2] * (1 + 1e-9) + 1e-12


def test_power_estimate(w):
    A = opalg.random_banded(w, 8, prop=2, decay=0.5)
    A = A.scale(0.9 / opalg.op_norm(A))
    tab = opalg.check_power_estimate(A, 3, 8)
    assert tab.passed
    assert [(r.n, r.R) for r in tab.rows] == \
        [(n, R) for n in (1, 2, 3) for R in range(1, 9)]
    assert all(r.n is None for r in opalg.check_product_estimate(A, A, 8).rows)
    with pytest.raises(PreconditionError):
        opalg.check_power_estimate(opalg.identity(w).scale(2.0), 2, 4)


def test_power_estimate_zero(w):
    Z = opalg.BandedOperator(w, np.zeros((w.n_points, w.n_points)))
    assert opalg.check_power_estimate(Z, 2, 6).passed


def test_neumann_zero(w):
    Z = opalg.BandedOperator(w, np.zeros((w.n_points, w.n_points)))
    S, rep = opalg.neumann_inverse(Z, 2)
    assert rep.passed
    assert rep.measured == pytest.approx(1.0)
    assert rep.bound == pytest.approx(1.0)


def test_neumann_small_shift(w):
    B = opalg.shift(w, 0, 1).scale(0.005)
    S, rep = opalg.neumann_inverse(B, 2)
    assert rep.passed
    assert rep.measured <= rep.bound + rep.slack


def test_neumann_precondition(w):
    B = opalg.shift(w, 0, 1).scale(0.5)
    with pytest.raises(PreconditionError):
        opalg.neumann_inverse(B, 2)


def test_neumann_random_sweep(w):
    for n in (1, 2):
        for seed in range(5):
            B = opalg.random_banded(w, (seed, n), prop=2, decay=0.5)
            B = B.scale(0.8 / (2 ** (n + 1) * 5) / opalg.op_norm(B))
            _, rep = opalg.neumann_inverse(B, n)
            assert rep.passed


def test_mu_norm_lower_below_svd_on_neumann_inverse():
    # a Neumann operator of the suite, whose decay shells do not bind: the
    # lower norm is the op norm, which must not carry the upper side's
    # m*k*eps rounding margin
    wn = spaces.make_window("zd", 32, 16, dim=1)
    B = opalg.random_banded(wn, (13, 1, 0), prop=2, decay=0.5)
    B = B.scale(0.8 / (2 ** 2 * 5) / opalg.op_norm(B))
    S, rep = opalg.neumann_inverse(B, 1)
    prof = opalg.mu_profile(S, 16)
    lower = prof.mu_norm_lower(1)
    assert lower == rep.measured == prof.op_lower
    dense = S.mat.toarray()
    k = np.count_nonzero(np.any(dense != 0, axis=0))
    sigma = np.linalg.svd(dense, compute_uv=False)[0]
    assert lower <= sigma * (1 + 4 * k * np.finfo(float).eps)
    assert prof.op >= sigma


def test_power_series_identity_and_square(w):
    A = opalg.random_banded(w, 12, prop=2, decay=0.6).scale(0.1)
    F, _ = opalg.power_series_apply(A, [1.0])
    assert opalg.op_norm(F - A) < 1e-12
    S = opalg.shift(w, 0, 1)
    F2, _ = opalg.power_series_apply(S, [0.0, 1.0])
    assert opalg.op_norm(F2 - (S @ S)) < 1e-12
    assert F2.propagation == 2


def test_power_series_exp_against_expm_oracle():
    import math
    w = spaces.make_window("zd", 12, 6, dim=1)
    A = opalg.shift(w, 0, 1).scale(0.1)
    coeffs = [1.0 / math.factorial(i) for i in range(1, 22)]
    F, rep = opalg.power_series_apply(A, coeffs, tol=1e-14)
    oracle = scipy.linalg.expm(A.mat.toarray()) - np.eye(w.n_points)
    assert np.abs(F.mat.toarray() - oracle).max() < 1e-8
    assert np.isfinite(rep["mu_norm"])


def test_power_series_radius_certification(w):
    A = opalg.shift(w, 0, 1).scale(2.0)
    with pytest.raises(PreconditionError):
        opalg.power_series_apply(A, [1.0] * 20)


def test_adjoint_profile_symmetry(w):
    A = opalg.random_banded(w, 17, prop=3, decay=0.6)
    H = A + A.adjoint()
    p1 = opalg.mu_profile(H, 6)
    p2 = opalg.mu_profile(H.adjoint(), 6)
    assert np.allclose(p1.upper, p2.upper, atol=1e-9)
    assert np.allclose(p1.lower, p2.lower, atol=1e-9)


def test_site_projection(w):
    p = w.index_of((3,))
    P = opalg.site_projection(w, p)
    assert opalg.op_norm((P @ P) - P) < 1e-14
    assert opalg.op_norm(P.adjoint() - P) < 1e-14


def test_winding_unitary(w):
    U = opalg.winding_unitary(w, 2)
    S = opalg.shift(w, 0, 1)
    assert opalg.op_norm(U - (S @ S)) < 1e-14
    assert opalg.winding_unitary(w, 0).mat.nnz == w.n_points


def test_mu_profile_margin_precondition(w):
    with pytest.raises(Exception) as exc:
        opalg.mu_profile(opalg.shift(w, 0, 1), w.margin + 1)
    assert "margin" in str(exc.value)


def test_json_roundtrip(w):
    A = opalg.random_banded(w, 40, prop=2, decay=0.7)
    d = opalg.to_json_dict(A)
    B = opalg.from_json_dict(d, w)
    assert opalg.op_norm(A - B) < 1e-14


def test_json_roundtrip_fiber2(wsmall):
    A = opalg.random_banded(wsmall, 41, prop=2, decay=0.7, fiber=2)
    d = opalg.to_json_dict(A)
    assert d["fiber"] == 2
    B = opalg.from_json_dict(d, wsmall)
    assert opalg.op_norm(A - B) < 1e-14


def test_block_operator_algebra(wsmall):
    A = opalg.random_banded(wsmall, 42, prop=1, decay=0.8, fiber=2)
    B = opalg.random_banded(wsmall, 43, prop=1, decay=0.8, fiber=2)
    C = A @ B
    assert C.fiber == 2
    assert C.propagation <= A.propagation + B.propagation
    f, p, q = 2, 1, 3

    def block(M, p, q):
        return M.mat.toarray()[p * f:(p + 1) * f, q * f:(q + 1) * f]
    manual = sum(block(A, p, r) @ block(B, r, q) for r in range(wsmall.n_points))
    assert np.allclose(block(C, p, q), manual)

