"""Banded/decaying operators on a window and the dominating-function calculus.

Operators are stored as sparse complex matrices over the window's points, with
an optional fiber dimension f (an f x f block per point pair).  The true
dominating function mu_A(R) -- the best constant with
||P_{outside B_R(L)} A P_L|| <= mu_A(R) over all supports L -- is not
computable, so it is sandwiched:

  mu_lower(R)  max over probe supports (all singletons plus 32 seeded random
               subsets) of the compressed norm: a lower bound up to the
               rounding of one SVD (k*eps relative for k columns).  A probe's
               SVD at R is skipped when its Frobenius norm F beyond R, times
               1 + (m*k + m + k + 2) eps for its m x k matrix, is below the
               running max: the computed sigma is at most
               sigma * (1 + m*k*eps) <= F * (1 + m*k*eps), and the rounding
               of F itself (entries scaled by a power of two, so no square
               underflows unnoticed) lies inside the rest of the factor.  So
               a skipped SVD could not have been the max, and mu_lower is the
               same bit for bit as with every SVD run.  The pass builds
               those bounds for every (radius, probe) in one table first
               (_probe_bounds);
  mu_upper(R)  min(op norm, running max over R' >= R of the norm of the
               off-band part at distance > R'): a certified dominating function.

Products.  A @ B calls scipy's numeric CSR product kernel (csr_matmat: SMMP,
Bank & Douglas 1993) directly, without the Python wrapper around it in
A.mat @ B.mat, which costs several times the kernel on small windows, and
without SMMP's symbolic pass: the output is sized by an upper bound, the sum
of B's row lengths over A's stored columns, and only the slots the kernel
wrote are kept.  The same arrays bit for bit, scipy's index dtype, each
row's columns in the order the kernel found them.

A profile (MuProfile) computes each of its parts on the first read and keeps
it: the off-band norms (upper) and the probes (lower), so a check pays only
for the parts it reads; the product estimate, for one, reads the factors'
upper profiles and the product's lower one.  Operators are treated as
immutable: the entries' distances, the propagation and the norm bracket
(upper, lower) are kept on the operator when first computed -- op_norm and a
profile's op and op_lower all read that one bracket -- and a profile keeps its
operator and reads it when a part is first read.

The lower decay norm mu_norm_lower(n) = max(op_lower, max over R >= 1 of
lower[R] * R^n) is op_lower, with no probe pass, when every radius's tail
bound -- the Frobenius norm of all entries beyond it, with a rounding margin,
one bincount for all radii -- times R^n lies below op_lower: every probe at
R is a submatrix of that tail, so no shell can exceed op_lower (the proof is
at MuProfile.mu_norm_lower).  Otherwise it reads lower.  On the suite's
Neumann inverses the tail bound times R^n stays below 4% of op_lower (the
shells below 2%), and no probe pass runs.

Norms.  A matrix has the singular values of its block on the nonzero rows and
columns, which is small here (supports lie in the safe core).  When that block
has at most DENSE_CUTOFF rows and columns, a norm is the LAPACK SVD of the
m x k block times (1 + m*k*eps), above the SVD's rounding error bound
p(m, k)*eps*||A|| (LAPACK Users' Guide 4.9): a certified upper bound, with the
plain SVD as the lower side.  Above the cutoff the bracket is closed-form in
the entries: the Schur test sqrt(largest column sum * largest row sum) of
|entries|, inflated by the rounding of those sums, above, and the largest
column 2-norm below, both taken of the entries times a power of two so that
nothing over- or underflows.  Both sides stay certified there, only looser.

Every quantitative inequality is then checked in the sound direction
(lower-certified left side against upper-certified right side).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matmat

from .errors import DegreeError, PreconditionError, WindowError
from .spaces import Window

DENSE_CUTOFF = 600          # largest nonzero block (rows or columns) normed by SVD
EPS = np.finfo(np.float64).eps
_INT32_MAX = np.iinfo(np.int32).max
PROBE_SUBSETS = 32
PROBE_SEED = 0x5EED


class BandedOperator:
    """Finite-propagation or decaying operator over a window.

    Operators are treated as immutable: the entries' distances, the
    propagation and the norm bracket are computed once and kept on the
    operator, so its matrix must not change after they are read."""

    __slots__ = ("window", "fiber", "mat", "_prop", "_dist", "_norm")

    def __init__(self, window: Window, mat, fiber: int = 1):
        self.window = window
        self.fiber = int(fiber)
        n = window.n_points * self.fiber
        # a complex CSR of the right shape (what random_banded and the
        # algebra below build) is kept as it is; anything else converts
        if not (isinstance(mat, sp.csr_matrix) and mat.dtype == np.complex128
                and mat.shape == (n, n)):
            mat = sp.csr_matrix(mat, shape=(n, n), dtype=np.complex128)
        # stored zeros are removed; the scan is skipped when there are none,
        # as after the algebra's products and sums and Gaussian draws
        if not mat.data.all():
            mat.eliminate_zeros()
        self.mat = mat
        self._prop = self._dist = self._norm = None

    # -- structure ---------------------------------------------------------

    def _check_same(self, other: "BandedOperator"):
        if other.window is not self.window or other.fiber != self.fiber:
            raise WindowError("opalg: operators live on different windows "
                              "or have different fiber dimensions")

    def _entry_points(self):
        return _csr_rows(self.mat) // self.fiber, self.mat.indices // self.fiber

    def entry_point_pairs(self):
        """(rows, cols, dists) at point level for the stored entries, in CSR
        order.  The distances are computed on the first call and kept,
        read-only, with the propagation if it is not yet known."""
        r, c = self._entry_points()
        if self._dist is None:
            d = self.window.dist_many(r, c)
            d.flags.writeable = False
            self._dist = d
            if self._prop is None:
                self._prop = int(d.max(initial=0))
        return r, c, self._dist

    @property
    def propagation(self) -> int:
        if self._prop is None:
            # the distances are not kept for this alone: most operators whose
            # propagation is read (the character's products, for its margin
            # check) never have them read, and they cost 8 bytes an entry
            self._prop = int(self.window.dist_many(*self._entry_points())
                             .max(initial=0))
        return self._prop

    # -- *-algebra ----------------------------------------------------------

    def __add__(self, other):
        self._check_same(other)
        return BandedOperator(self.window, self.mat + other.mat, self.fiber)

    def __sub__(self, other):
        self._check_same(other)
        return BandedOperator(self.window, self.mat - other.mat, self.fiber)

    def __matmul__(self, other):
        self._check_same(other)
        return BandedOperator(self.window, _csr_product(self.mat, other.mat),
                              self.fiber)

    def scale(self, z):
        return BandedOperator(self.window, z * self.mat, self.fiber)

    def adjoint(self):
        return BandedOperator(self.window, self.mat.conj().T.tocsr(), self.fiber)

    def __repr__(self):
        return (f"BandedOperator(points={self.window.n_points}, fiber={self.fiber}, "
                f"nnz={self.mat.nnz}, propagation={self.propagation})")


def _csr_product(a, b):
    """a @ b for complex CSR matrices a and b, through the numeric kernel of
    scipy's product (SMMP: Bank & Douglas, Adv. Comput. Math. 1, 1993)
    without its Python wrapper: the same entries, bit for bit, each row's
    columns in the order the kernel found them, and scipy's index dtype,
    int32 unless an index array or the product's size needs int64.  No exact
    zero is stored.

    The output is sized by an upper bound instead of SMMP's symbolic pass,
    which counts the entries exactly: each stored product a_ij b_jk gives at
    most one entry, so the sum of b's row lengths over a's stored columns
    bounds them.  Index dtypes follow scipy's rule with the bound in place
    of the exact count; the two differ only for a bound above 2^31 - 1, when
    the buffers alone would pass 40 GB.  Only the indptr[-1] slots the
    kernel wrote are passed on, as views: the constructor reads the contents
    of int64 index arrays to pick its dtype, and it copies a view of less
    than half its buffer (scipy's prune)."""
    m, n = a.shape[0], b.shape[1]
    index = (a.indptr, a.indices, b.indptr, b.indices)
    bound = int(np.add.reduce((b.indptr[1:] - b.indptr[:-1]).take(a.indices)))
    dt = np.int64 if bound > _INT32_MAX else np.result_type(*index)
    ap, ai, bp, bi = (x.astype(dt, copy=False) for x in index)
    indptr = np.empty(m + 1, dtype=dt)
    indices = np.empty(bound, dtype=dt)
    data = np.empty(bound, dtype=np.complex128)
    csr_matmat(m, n, ap, ai, a.data, bp, bi, b.data, indptr, indices, data)
    nnz = int(indptr[-1])
    return sp.csr_matrix((data[:nnz], indices[:nnz], indptr), shape=(m, n))


def _csr_rows(mat) -> np.ndarray:
    """The row of each stored entry of a CSR matrix, in storage order (the
    rows ``tocoo`` gives, without building the COO matrix)."""
    return np.repeat(np.arange(mat.shape[0], dtype=mat.indices.dtype),
                     np.diff(mat.indptr))


# -- norms ------------------------------------------------------------------------

def _compress(mat):
    """The block of a sparse mat on its nonzero rows and columns, with those row
    and column indices.  It has the nonzero singular values of mat.  The block
    is a dense array when it has at most DENSE_CUTOFF rows and columns, else
    a CSR matrix."""
    csr = mat.tocsr()
    counts = np.diff(csr.indptr)
    rows = np.flatnonzero(counts)
    cols, c = np.unique(csr.indices, return_inverse=True)
    r = np.repeat(np.arange(len(rows)), counts[rows])
    shape = (len(rows), len(cols))
    if max(shape) > DENSE_CUTOFF:
        return sp.csr_matrix((csr.data, (r, c)), shape=shape), rows, cols
    block = np.zeros(shape, dtype=np.complex128)
    np.add.at(block, (r, c), csr.data)
    return block, rows, cols


def _dense_sigma(arr) -> float:
    """Largest singular value of a dense array from LAPACK, as computed."""
    return float(np.linalg.svd(arr, compute_uv=False)[0]) if arr.size else 0.0


def _dense_norm2(arr) -> float:
    """_dense_sigma of an m x k array inflated by its rounding error bound
    m*k*eps*||arr|| to a certified upper bound."""
    return _dense_sigma(arr) * (1 + arr.size * EPS)


def _pow2_scale(absval) -> int:
    """The s that puts the largest of absval, times 2^s, in [1/2, 1)."""
    return -int(np.frexp(absval.max())[1])


def _schur_cap(rows, cols, absval) -> float:
    """Schur test on the entries absval = |A[rows, cols]|: ||A|| <=
    sqrt(largest column sum * largest row sum), a certified upper bound.

    The sums are taken of the entries times 2^s (_pow2_scale), so their
    product neither overflows nor underflows at the ends of the float range,
    and the cap is scaled back.  A power of two scales exactly, so in range
    the cap has the bits of the unscaled sums'.  bincount adds each sum's
    terms in turn, so with the rounding of the |entries|, the product and the
    square root the computed cap lies at most (nnz + 3) * eps / 2 below the
    exact one (Higham, Accuracy and Stability of Numerical Algorithms, 4.2);
    the factor (1 + (nnz + 2) * eps) covers it, and the underflow of scaled
    entries too: at most 2^-1075 each, against sums of at least 1/2.
    """
    if len(absval) == 0:
        return 0.0
    s = _pow2_scale(absval)
    n = int(max(rows.max(), cols.max())) + 1
    scaled = np.ldexp(absval, s)
    sums = np.bincount(np.concatenate([rows, n + cols]),
                       weights=np.concatenate([scaled, scaled]))
    cap = np.sqrt(sums[:n].max() * sums[n:].max())
    return float(np.ldexp(cap * (1 + (len(absval) + 2) * EPS), -s))


def _bracket(A: BandedOperator, block=None) -> tuple[float, float]:
    """Certified (upper, lower) bounds of ||A|| (see Norms above), computed
    once per operator and kept on it; block, if given, is A's _compress.
    Above DENSE_CUTOFF the largest column norm is taken, as the Schur cap
    is, of the entries times 2^s, so no square over- or underflows."""
    if A._norm is None:
        if block is None:
            block, _, _ = _compress(A.mat)
        if sp.issparse(block):
            c, a = A.mat.indices, np.abs(A.mat.data)
            s = _pow2_scale(a)
            col2 = np.bincount(c, weights=np.ldexp(a, s) ** 2).max()
            A._norm = (_schur_cap(_csr_rows(A.mat), c, a),
                       float(np.ldexp(np.sqrt(col2), -s)))
        else:
            sigma = _dense_sigma(block)
            A._norm = (sigma * (1 + block.size * EPS), sigma)
    return A._norm


def op_norm(A: BandedOperator) -> float:
    """Operator norm, a certified upper bound: the SVD of the nonzero block
    times its rounding margin when that block has at most DENSE_CUTOFF rows
    and columns, else the Schur test on its entries (looser)."""
    return _bracket(A)[0]


# -- dominating-function profiles ----------------------------------------------

def _probe_subsets(window: Window):
    """The PROBE_SUBSETS seeded random supports of mu_profile's probes, drawn
    once per window and kept, read-only, in its memo."""
    def draw():
        rng = np.random.default_rng(PROBE_SEED)
        pool = window.safe_points if len(window.safe_points) \
            else np.arange(window.n_points)
        subsets = []
        for _ in range(PROBE_SUBSETS):
            size = int(rng.integers(2, min(32, max(3, len(pool) // 2)) + 1))
            L = np.sort(rng.choice(pool, size=min(size, len(pool)), replace=False))
            L.flags.writeable = False
            subsets.append(L)
        return tuple(subsets)
    return window.derived("probe_subsets", draw)


class MuProfile:
    """Certified sandwich mu_lower <= mu_true <= mu_upper on integer radii
    0..Rmax, and the op norm from above (op) and from below (op_lower: the
    plain SVD up to DENSE_CUTOFF, the largest column 2-norm above it).

    op and op_lower read the operator's norm bracket, as op_norm does.  upper
    (the off-band norms) and lower with probe_svds (probe matrices, one per
    support and radius, SVD'd) and probe_skips (those whose SVD the Frobenius
    bound ruled out) from the probe pass are computed on their first read and
    kept.  A part nobody reads is never computed, and every part is the same
    bit for bit whatever was read before it.  The block is fixed when the
    profile is made; the operator must not change after that.  mu_norm and
    mu_norm_lower read the decay norms off the profile; mu_norm_lower reads
    no probe pass where the tail bound shows that no shell can exceed
    op_lower (the proof that the norm is the same float is in its
    docstring)."""

    def __init__(self, A: BandedOperator, Rmax: int):
        A.window.require_margin(Rmax, "opalg.mu_profile")
        self.Rmax = Rmax
        self._A = A
        self._block, rows, cols = _compress(A.mat)
        self._rpts, self._cpts = rows // A.fiber, cols // A.fiber
        self._sparse = sp.issparse(self._block)
        if A.fiber == 1 or self._sparse:
            # the entries' distances, kept on A; this also stores A.propagation
            A.entry_point_pairs()
        self._radii = range(min(Rmax + 1, A.propagation))   # entries beyond them

    @property
    def op(self) -> float:
        return _bracket(self._A, self._block)[0]

    @property
    def op_lower(self) -> float:
        return _bracket(self._A, self._block)[1]

    @cached_property
    def upper(self) -> np.ndarray:
        A, block = self._A, self._block
        raw = np.zeros(self.Rmax + 1)
        if not self._sparse:
            d = A.window.dist_cross(self._rpts, self._cpts)
            # one radius at a time: a stack of all radii would be large
            for R in self._radii:
                raw[R] = _dense_norm2(np.where(d > R, block, 0))
        else:
            r, c = _csr_rows(A.mat), A.mat.indices
            a = np.abs(A.mat.data)
            _, _, dist = A.entry_point_pairs()
            for R in self._radii:
                keep = dist > R
                raw[R] = _schur_cap(r[keep], c[keep], a[keep])
        upper = np.minimum(self.op, np.maximum.accumulate(raw[::-1])[::-1])
        upper.flags.writeable = False
        return upper

    @property
    def lower(self) -> np.ndarray:
        return self._probes[0]

    @property
    def probe_svds(self) -> int:
        return self._probes[1]

    @property
    def probe_skips(self) -> int:
        return self._probes[2]

    @cached_property
    def _scale(self) -> int:
        """The s that puts the largest real or imaginary part of the entries,
        times 2^s, in [1/2, 1).  Masses are taken of the entries so scaled:
        the scaling is exact, and no square over- or underflows at the ends
        of the float range (see _probe_bounds)."""
        vals = self._block.data if self._sparse else self._block
        return -int(np.frexp(max(np.abs(vals.real).max(initial=0.0),
                                 np.abs(vals.imag).max(initial=0.0)))[1])

    @cached_property
    def _tail(self) -> np.ndarray:
        """For each radius 0..Rmax, in the 2^s scale, a bound of the computed
        norm of every probe matrix and singleton column beyond it (all are
        submatrices of the entries beyond R): the Frobenius norm of those
        entries, from one bincount of the squares over min(distance, Rmax +
        1) and a reverse cumulative sum, times 1 + (M + nnz + 4) eps, M the
        block's size.  An m x k probe's computed sigma is at most
        sigma * (1 + m*k*eps), m*k <= M (the LAPACK model of _dense_norm2);
        the sum of nnz squares is off by at most (nnz + 1) eps/2 relative,
        the square root and the product by a few eps/2 more.  Below 2^-960,
        where underflow breaks that analysis (see _probe_bounds), 2^-960 is
        itself a bound: the squares' underflow adds at most nnz * 2^-1073."""
        A, Rmax, s = self._A, self.Rmax, self._scale
        _, _, dist = A.entry_point_pairs()
        z = A.mat.data
        sq = np.ldexp(z.real, s) ** 2 + np.ldexp(z.imag, s) ** 2
        beyond = np.cumsum(np.bincount(np.minimum(dist, Rmax + 1), weights=sq,
                                       minlength=Rmax + 2)[::-1])[::-1]
        size = self._block.shape[0] * self._block.shape[1]
        tail = np.sqrt(np.maximum(beyond[1:], 2.0 ** -960)) \
            * (1 + (size + len(z) + 4) * EPS)
        tail.flags.writeable = False
        return tail

    @cached_property
    def _probes(self) -> tuple[np.ndarray, int, int]:
        """(lower, SVDs run, SVDs skipped): the probe pass.  A probe's SVD at
        R is skipped when its Frobenius bound is below the running lower[R],
        both in the 2^s scale (see _scale and _probe_bounds)."""
        # Probes: the plain SVD of the columns over a support L on the rows
        # beyond R, a lower bound within rounding (k*eps relative) of the true
        # value.
        A, block, Rmax = self._A, self._block, self.Rmax
        radii = np.arange(len(self._radii))
        lower = np.zeros(Rmax + 1)
        w, f, sparse = A.window, A.fiber, self._sparse
        rpts, cpts = self._rpts, self._cpts
        vals = block.data if sparse else block
        s = self._scale
        if f == 1:
            # singletons: column mass beyond each radius, all radii in one
            # bincount over (radius, entry) pairs, R-major
            _, pcol, dist = A.entry_point_pairs()
            absdata2 = np.ldexp(np.abs(A.mat.data), s) ** 2
            ri, e = np.nonzero(dist > radii[:, None])
            mass = np.bincount(ri * w.n_points + pcol[e], weights=absdata2[e],
                               minlength=len(radii) * w.n_points)
            lower[radii] = np.ldexp(
                np.sqrt(mass.reshape(len(radii), w.n_points).max(axis=1)), -s)
        # Every probe's (probe, row) pairs -- its rows are those with a nonzero
        # in its columns -- with the row's mass there and distance to the
        # support, probe by probe, rows ascending.
        sq = np.ldexp(vals.real, s) ** 2 + np.ldexp(vals.imag, s) ** 2
        dist_to, member = _probe_table(w)
        colmask = member[:, cpts]               # subset x block column
        cm = colmask.T.astype(np.float64)
        if sparse:
            er, ec, sq_e = _csr_rows(block), block.indices, sq
            sq = sp.csr_matrix((sq, block.indices, block.indptr), shape=block.shape)
            block = block.tocsc()
        hit = ((block != 0) @ cm).T > 0
        pj, pr = np.nonzero(hit)
        pmass = (sq @ cm)[pr, pj]
        pdist = dist_to[rpts[pr], pj]
        width = colmask.sum(axis=1)             # each probe matrix's k
        n_single = 0
        if f > 1:
            # singleton block columns are probes too, ahead of the subsets;
            # their pairs come from the entries, each entry in one of them
            ucpts, inv = np.unique(cpts, return_inverse=True)
            if not sparse:
                er, ec = np.nonzero(block)
                sq_e = sq[er, ec]
            nrows = block.shape[0]
            keys, pair = np.unique(inv[ec] * nrows + er, return_inverse=True)
            sj, sr = np.divmod(keys, nrows)
            pj = np.concatenate([sj, pj + len(ucpts)])
            pr = np.concatenate([sr, pr])
            pmass = np.concatenate([np.bincount(pair, weights=sq_e), pmass])
            pdist = np.concatenate([w.dist_many(rpts[sr], ucpts[sj]), pdist])
            width = np.concatenate([np.bincount(inv), width])
            n_single = len(ucpts)
        n_probes = len(width)
        ri, e = np.nonzero(pdist > radii[:, None])
        frob2 = np.bincount(ri * n_probes + pj[e], weights=pmass[e],
                            minlength=len(radii) * n_probes
                            ).reshape(len(radii), n_probes)
        reach = np.zeros(n_probes, dtype=np.int64)
        np.maximum.at(reach, pj, np.minimum(pdist, Rmax + 1))
        height = np.bincount(pj, minlength=n_probes)    # each probe matrix's m
        start = np.concatenate([[0], np.cumsum(height)])
        bound = _probe_bounds(frob2, height, width)
        # a skip against the singleton floor stays one: lower only grows
        live = (radii[:, None] < reach) & ~(
            bound < np.ldexp(lower[radii], s)[:, None])
        svds = 0
        for j in np.flatnonzero(live.any(axis=0)):
            Rs = np.flatnonzero(live[:, j] & ~(
                bound[:, j] < np.ldexp(lower[radii], s)))
            if len(Rs) == 0:
                continue
            svds += len(Rs)
            nz, dL = pr[start[j]:start[j + 1]], pdist[start[j]:start[j + 1]]
            cols_L = block[:, colmask[j - n_single] if j >= n_single
                           else cpts == ucpts[j]]
            if sp.issparse(cols_L):
                cols_L = cols_L.toarray()
            beyond = (dL > Rs[:, None])[:, :, None]
            sigma = np.linalg.svd(np.where(beyond, cols_L[nz], 0), compute_uv=False)
            lower[Rs] = np.maximum(lower[Rs], sigma[:, 0])
        lower.flags.writeable = False
        return lower, svds, int(reach.sum()) - svds

    def mu_norm(self, n: float) -> float:
        """Certified upper bound for the best D with mu_A(R) <= D / R^n."""
        return _decay_norm(self.op, self.upper, n)

    def mu_norm_lower(self, n: float) -> float:
        """Lower bound of the same norm, up to the rounding of one SVD:
        op_lower against the probe shells, max(op_lower, max over R >= 1 of
        fl(lower[R] * p_R)) with p_R = fl(R^n) from _radius_powers.

        When shell_ratio_upper(n) < 1 this is op_lower, with no probe pass,
        as on all of the suite's Neumann inverses; otherwise it reads lower,
        which is then kept.  Both give the same float.  With t_R the tail
        bound (_tail) and b = op_lower * 2^s, a ratio fl(fl(max_R fl(t_R *
        p_R)) / b) below 1 means, rounding being monotone, fl(t_R * p_R) < b
        and then t_R * p_R < b for every R in 1..k-1 (k as in
        shell_ratio_upper; lower is 0 beyond).  b is exact: op_lower, an SVD
        or a column norm of the block, is 0, inf or at least 2^-26 in the
        2^s scale.  Every probe matrix and singleton column at R is a
        submatrix of the entries beyond R, so its computed norm x has x * 2^s
        <= t_R, hence x * p_R < op_lower and fl(x * p_R) <= op_lower: no
        shell exceeds op_lower."""
        if self.shell_ratio_upper(n) < 1:
            return self.op_lower
        return _decay_norm(self.op_lower, self.lower, n)

    def shell_ratio_upper(self, n: float) -> float:
        """max over R >= 1 of the tail bound at R (see _tail) times R^n, over
        op_lower: at or above the exact shell ratio, the max over R >= 1 of
        lower[R] * R^n / op_lower, and it needs no SVD but op_lower's."""
        k = len(self._radii)        # radii with entries beyond them
        if k <= 1:
            return 0.0
        shells = self._tail[1:k] * _radius_powers(k - 1, n)
        return float(shells.max() / np.ldexp(self.op_lower, self._scale))

    def upper_at(self, x: float) -> float:
        """Evaluate the upper profile at a real radius (floor: still certified)."""
        if x < 0:
            return self.op
        r = int(np.floor(x))
        if r > self.Rmax:
            r = self.Rmax
        return float(self.upper[r])

    def table(self):
        return [{"R": r, "mu_lower": float(self.lower[r]),
                 "mu_upper": float(self.upper[r])} for r in range(self.Rmax + 1)]


def mu_profile(A: BandedOperator, Rmax: int) -> MuProfile:
    """The certified dominating-function sandwich out to radius Rmax: checks
    the margin and reads the entries' distances now; each part of the profile
    is computed when it is first read (see MuProfile)."""
    return MuProfile(A, Rmax)


def _decay_norm(op: float, mu: np.ndarray, n: float) -> float:
    """max(op, max over R >= 1 of mu(R) * R^n)."""
    shells = mu[1:] * _radius_powers(len(mu) - 1, n)
    return float(max(op, shells.max(initial=0.0)))


def _radius_powers(Rmax: int, n: float) -> np.ndarray:
    """R^n for R = 1..Rmax, as the decay norms weigh their shells."""
    return np.arange(1, Rmax + 1, dtype=float) ** n


def _probe_bounds(frob2, m, k):
    """The certified Frobenius bound of every probe SVD, built once for the
    whole pass: for probe j, an m[j] x k[j] matrix at each radius with squared
    Frobenius norm frob2[R, j], the computed F times 1 + (m*k + m + k + 2)
    eps, inf where frob2 < 2^-960.  An SVD whose bound is below the running
    lower (in the same power-of-two scale) cannot raise it and is skipped.

    The computed sigma is at most sigma * (1 + m*k*eps) (the LAPACK model of
    _dense_norm2) and sigma <= F.  A row's mass adds at most k squares and
    frob2 at most m row masses, so with the squares' own rounding frob2 is
    off by at most (m + k + 1) eps/2 relative; its square root, the factor
    and the product add a few eps/2, all inside the (m + k + 2) eps added.
    That leaves underflow: at most 2^-1072 per entry, negligible once
    frob2 >= 2^-960 (the scale puts the largest entry near 1); below that the
    bound is inf and no SVD is skipped."""
    bound = np.sqrt(frob2) * (1 + (m * k + m + k + 2) * EPS)
    return np.where(frob2 >= 2.0 ** -960, bound, np.inf)


def _probe_table(window: Window):
    """Each point's distance to each of the PROBE_SUBSETS probe supports
    (n_points x PROBE_SUBSETS) and their membership masks (PROBE_SUBSETS x
    n_points), built once per window, one support at a time, and kept,
    read-only, in its memo."""
    def build():
        supports = _probe_subsets(window)
        pts = np.arange(window.n_points)
        dist_to = np.empty((window.n_points, len(supports)), dtype=np.int64)
        member = np.zeros((len(supports), window.n_points), dtype=bool)
        for j, L in enumerate(supports):
            dist_to[:, j] = window.dist_cross(pts, L).min(axis=1)
            member[j, L] = True
        dist_to.flags.writeable = False
        member.flags.writeable = False
        return dist_to, member
    return window.derived("probe_table", build)


# -- quantitative checks ------------------------------------------------------------

@dataclass
class CheckRow:
    R: float
    lhs: float
    rhs: float
    ok: bool
    n: int | None = None      # power of the power estimate; None elsewhere


@dataclass
class CheckTable:
    name: str
    rows: list

    @property
    def passed(self):
        return all(r.ok for r in self.rows)


def check_product_estimate(A: BandedOperator, B: BandedOperator,
                           Rmax: int) -> CheckTable:
    """Product dominating-function inequality at even radii (sound direction)."""
    A._check_same(B)
    AB = A @ B
    pa = mu_profile(A, Rmax)
    pb = mu_profile(B, Rmax)
    pab = mu_profile(AB, Rmax)
    rows = []
    for R in range(2, Rmax + 1, 2):
        half = R // 2
        rhs = (pa.op * 2 * pb.upper[half]
               + pa.upper[half] * (pb.op + 2 * pb.upper[half]))
        lhs = float(pab.lower[R])
        rows.append(CheckRow(R, lhs, rhs, lhs <= rhs * (1 + 1e-9) + 1e-12))
    return CheckTable("product_estimate", rows)


def check_power_estimate(A: BandedOperator, nmax: int, Rmax: int) -> CheckTable:
    """Iterated-product inequality mu_{A^(n+1)}(R) <= sum 5^k op^n mu_A(R/2^k)."""
    opA = op_norm(A)
    if opA > 1 + 1e-9:
        raise PreconditionError(
            f"opalg.check_power_estimate: operator norm {opA:.4f} must be "
            "normalized to <= 1")
    pa = mu_profile(A, Rmax)
    rows = []
    P = A
    for n in range(1, nmax + 1):
        P = P @ A
        pl = mu_profile(P, Rmax)
        for R in range(1, Rmax + 1):
            rhs = sum((5.0 ** k) * (opA ** n) * pa.upper_at(R / 2 ** k)
                      for k in range(1, n + 1))
            lhs = float(pl.lower[R])
            rows.append(CheckRow(R, lhs, rhs,
                                 lhs <= rhs * (1 + 1e-9) + 1e-12, n=n))
    return CheckTable("power_estimate", rows)


def _diagonal(window: Window, points, fiber: int) -> BandedOperator:
    """The projection onto the fibers of the given points (ascending)."""
    n = window.n_points * fiber
    dt = np.int32 if n < 2 ** 31 else np.int64    # scipy's choice from COO
    idx = (np.asarray(points, dtype=dt)[:, None] * fiber
           + np.arange(fiber, dtype=dt)).ravel()
    # one entry per listed row, in ascending order: already canonical CSR
    indptr = np.zeros(n + 1, dtype=dt)
    indptr[idx + 1] = 1
    np.cumsum(indptr, out=indptr)
    mat = sp.csr_matrix((np.ones(len(idx), dtype=np.complex128), idx, indptr),
                        shape=(n, n))
    return BandedOperator(window, mat, fiber)


def identity(window: Window, fiber: int = 1) -> BandedOperator:
    return _diagonal(window, np.arange(window.n_points), fiber)


@dataclass
class NeumannReport:
    measured: float
    bound: float
    op_inverse: float
    terms: int
    tail: float
    slack: float
    passed: bool
    shell_ratio_upper: float    # decay shells over op_lower, bounded above


def neumann_inverse(B: BandedOperator, n: int, tol: float = 1e-13):
    """Geometric series for (id - B)^(-1) with the decay-norm bound report.

    Requires ||B||_op < 1 / (2^(n+1) * 5).  The report compares the certified
    lower decay norm of the truncated inverse against
    max(||inv||_op, 1 + ||B||_{mu,n} + ||B||_{mu,n} / (1 - ||B||_op)), with a
    slack of tail * Rmax^n for the truncation, Rmax the window's margin.
    shell_ratio_upper bounds the inverse's decay shells over its op_lower
    from above (MuProfile.shell_ratio_upper), without an SVD.

    The terms are the kernel products P_k = P_{k-1} @ B (_csr_product, the
    arrays of scipy's P_{k-1} @ B) from P_0 = I, the first one I @ B too:
    the kernel leaves a product's column indices in the order it found
    them, that order sets the summation order of the next product, and
    starting from B would change the inverse's last bits.  S
    is built once, on the union of the identity's and the terms' patterns,
    rows sorted: 1 on the diagonal, then each term's entries added in place,
    term by term.  Those are the additions of S = S + P_k in the same order,
    so S has the entries of that sparse sum bit for bit.
    """
    q = op_norm(B)
    thresh = 1.0 / (2 ** (n + 1) * 5)
    if q >= thresh:
        raise PreconditionError(
            f"opalg.neumann_inverse: ||B||_op = {q:.6f} is not below "
            f"1/(2^{n + 1} * 5) = {thresh:.6f} required for n = {n}")
    Rmax = B.window.margin
    P = identity(B.window, B.fiber).mat
    N = P.shape[0]
    keys, data = [np.arange(N, dtype=np.int64) * (N + 1)], []   # the diagonal
    terms = 0
    while q > 0 and (q ** (terms + 1)) / (1 - q) >= tol:
        P = _csr_product(P, B.mat)
        keys.append(_csr_rows(P).astype(np.int64) * N + P.indices)
        data.append(P.data)
        terms += 1
    # S on the union of the terms' patterns, summed term by term in place
    pattern, at = np.unique(np.concatenate(keys), return_inverse=True)
    vals = np.zeros(len(pattern), dtype=np.complex128)
    vals[at[:N]] = 1
    start = N
    for d in data:
        vals[at[start:start + len(d)]] += d
        start += len(d)
    indptr = np.searchsorted(pattern, np.arange(0, N * N + 1, N))
    S = BandedOperator(B.window, sp.csr_matrix((vals, pattern % N, indptr),
                                               shape=(N, N)), B.fiber)
    tail = (q ** (terms + 1)) / (1 - q) if q > 0 else 0.0
    prof_S = mu_profile(S, Rmax)
    prof_B = mu_profile(B, Rmax)
    measured = prof_S.mu_norm_lower(n)
    nB = prof_B.mu_norm(n)
    bound = max(prof_S.op, 1 + nB + nB / (1 - q))
    slack = tail * (max(Rmax, 1) ** n) + 1e-9 * (1 + bound)
    report = NeumannReport(measured=measured, bound=bound, op_inverse=prof_S.op,
                           terms=terms, tail=tail, slack=slack,
                           passed=measured <= bound + slack,
                           shell_ratio_upper=prof_S.shell_ratio_upper(n))
    return S, report


def power_series_apply(A: BandedOperator, coeffs, tol: float = 1e-12):
    """Apply f(A) = sum_{i>=1} a_i A^i for a power series with f(0) = 0.

    coeffs[i] is the coefficient of A^(i+1).  The convergence radius is
    estimated, not certified, by a root test on the trailing quarter of the
    supplied coefficients; truncation stops once the remaining tail bound,
    summed over the supplied terms, is below tol in operator norm.  The
    report carries the decay norm ||f(A)||_{mu,2}.
    """
    coeffs = list(coeffs)
    if not coeffs:
        raise PreconditionError("opalg.power_series_apply: empty coefficient list")
    opA = op_norm(A)
    bounds = [abs(a) * opA ** (i + 1) for i, a in enumerate(coeffs)]
    tail_start = max(1, (3 * len(coeffs)) // 4)
    tail_pows = [abs(a) ** (1.0 / (i + 1))
                 for i, a in enumerate(coeffs) if i >= tail_start and a != 0]
    radius = np.inf if not tail_pows else 1.0 / max(tail_pows)
    tail = bounds[tail_start:]
    decaying = all(b2 <= b1 * (1 + 1e-12) for b1, b2 in zip(tail, tail[1:]))
    if radius <= opA and not decaying:
        raise PreconditionError(
            f"opalg.power_series_apply: convergence not certified at "
            f"||A||_op = {opA:.4f} (tail radius estimate {radius:.4f}, term "
            "bounds still growing at the truncation point)")
    out = BandedOperator(A.window,
                         sp.csr_matrix(A.mat.shape, dtype=np.complex128), A.fiber)
    P = identity(A.window, A.fiber)
    remaining = sum(bounds)
    used = 0
    for i, a in enumerate(coeffs):
        if remaining < tol:
            break
        P = P @ A
        if a != 0:
            out = out + P.scale(a)
        remaining -= bounds[i]
        used = i + 1
    rmax = min(A.window.margin, max(1, used * max(A.propagation, 1)))
    report = {"terms_used": used, "tail_bound": max(remaining, 0.0),
              "mu_norm": mu_profile(out, rmax).mu_norm(2) if rmax >= 1 else None}
    return out, report


# -- generators --------------------------------------------------------------------

def shift(window: Window, axis: int = 0, power: int = 1) -> BandedOperator:
    """Lattice shift: entry 1 at (p + power * e_axis, p) whenever both exist."""
    if window.kind != "zd":
        raise WindowError("opalg.shift: needs a lattice window")
    if not (0 <= axis < window.dim):
        raise WindowError(f"opalg.shift: unsupported axis {axis} for "
                          f"dim {window.dim}")
    tgt = window.coords.copy()
    tgt[:, axis] += power
    idx = window.index_many(tgt)
    cols = np.flatnonzero(idx >= 0)
    rows = idx[cols]
    mat = sp.csr_matrix((np.ones(len(rows), dtype=np.complex128), (rows, cols)),
                        shape=(window.n_points, window.n_points))
    return BandedOperator(window, mat)


def winding_unitary(window: Window, k: int) -> BandedOperator:
    """k-fold shift on a 1-D lattice window; unitary on the margin-safe core."""
    if window.dim != 1:
        raise WindowError("opalg.winding_unitary: needs a 1-D lattice window")
    return shift(window, 0, k)


def site_projection(window: Window, p: int) -> BandedOperator:
    window.check_point(p)
    return _diagonal(window, [p], 1)


def diag_indicator(window: Window, predicate) -> BandedOperator:
    return _diagonal(window, [p for p in range(window.n_points)
                              if predicate(window.label(p))], 1)


def safe_projector(window: Window) -> BandedOperator:
    return _diagonal(window, np.flatnonzero(
        window.dist_to_base <= window.W - window.margin), 1)


def _banded_pairs(window: Window, prop: int):
    """_enumerate_pairs, once per (window, prop): the window's memo keeps its
    arrays, read-only."""
    return window.derived(("banded_pairs", prop),
                          lambda: _enumerate_pairs(window, prop))


def _enumerate_pairs(window: Window, prop: int):
    """The candidate pairs of random_banded: all ordered pairs of margin-safe
    points at distance <= prop, enumerated by stencil offset on lattices and
    by column elsewhere.  Returns what a draw's layout reads: the distances in
    enumeration order (the order the draws follow), the permutation
    ``order`` that puts the pairs in CSR order (by row, then column), their
    columns in CSR order as int32, and the row pointer of all candidates in
    CSR order (int32), so that a draw's CSR arrays are index selections."""
    pts = window.safe_points
    if window.kind == "zd":
        # one lookup over the <= prop offset stencil x points
        grid = np.stack(np.meshgrid(*([np.arange(-prop, prop + 1)] * window.dim),
                                    indexing="ij"), -1).reshape(-1, window.dim)
        norms = window._zd_norm(grid)
        offsets = grid[norms <= prop]
        dists = norms[norms <= prop]
        idx = window.index_many(window.coords[pts][None, :, :] + offsets[:, None, :])
        # an off-window idx of -1 reads the last point's mask; idx >= 0 drops it
        ok = (idx >= 0) & window.safe_mask[idx]
        rows, cols = idx[ok], np.broadcast_to(pts, idx.shape)[ok]
        ds = np.broadcast_to(dists[:, None], idx.shape)[ok]
    else:
        # column blocks of at most ~4M distances
        step = max(1, (1 << 22) // max(len(pts), 1))
        rows, cols, ds = [], [], []
        for start in range(0, len(pts), step):
            block = pts[start:start + step]
            d = window.dist_cross(block, pts)
            c, r = np.nonzero(d <= prop)
            rows.append(pts[r])
            cols.append(block[c])
            ds.append(d[c, r])
        rows, cols, ds = map(np.concatenate, (rows, cols, ds))
    order = np.lexsort((cols, rows))
    n = window.n_points
    ptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    out = (ds, order, cols[order].astype(np.int32), ptr)
    for a in out:
        a.flags.writeable = False
    return out


def _complex_gaussians(rng, k: int) -> np.ndarray:
    """k standard complex Gaussians, real and imaginary parts of variance
    1/2, from one draw of 2k normals: the first k are the real parts, the
    rest the imaginary parts, as two draws of k would give them.  The draw is
    scaled by 1 / sqrt(2) before it is paired: numpy divides a complex array
    by a real scalar as a product with its reciprocal, so these are the bits
    of (x + 1j * y) / sqrt(2), which g / sqrt(2) would not give."""
    g = rng.standard_normal(2 * k)
    g *= 1.0 / np.sqrt(2.0)
    return g[:k] + 1j * g[k:]


def random_banded(window: Window, seed, prop: int, decay: float = 1.0,
                  fiber: int = 1, density: float = 0.5,
                  integer: bool = False) -> BandedOperator:
    """Seeded random operator with propagation <= prop and entry magnitudes
    scaled by decay^distance, supported on the margin-safe core.  With
    integer=True every entry, of every f x f block too, is a Gaussian
    integer in [-3, 3] + i[-3, 3] (exact in float arithmetic), used by the
    exact test paths; decay is then not applied.  density must lie in
    [0, 1], prop be >= 0 and fiber >= 1.

    The draws follow the pairs' enumeration order: one uniform per candidate
    picks it, then one Gaussian draw (_complex_gaussians) gives the picked
    entries, scaled by decay^distance from a table of the powers 0 .. prop;
    when fiber > 1 a second draw gives f x f blocks scaled by those entries'
    moduli.  The picked pairs are laid out in CSR order from the window's
    memo (_enumerate_pairs): their positions among the candidates in CSR
    order select the int32 columns, and bisecting the candidates' row
    pointer into those positions gives the int32 row pointer.  The
    operator's propagation is the largest distance among its nonzero
    entries (blocks)."""
    if not 0.0 <= density <= 1.0:
        raise PreconditionError(
            f"opalg.random_banded: density {density} is outside [0, 1]")
    if prop < 0:
        raise PreconditionError(
            f"opalg.random_banded: propagation {prop} is negative")
    if fiber < 1:
        raise PreconditionError(
            f"opalg.random_banded: fiber dimension {fiber} is below 1")
    rng = np.random.default_rng(seed)
    dists, order, csr_cols, ptr = _banded_pairs(window, prop)
    picked = rng.random(len(dists)) < density
    drawn = np.flatnonzero(picked)
    dists = dists[drawn]
    m = len(drawn)
    if integer:
        vals = (rng.integers(-3, 4, size=m)
                + 1j * rng.integers(-3, 4, size=m)).astype(np.complex128)
    else:
        vals = _complex_gaussians(rng, m)
        vals *= (decay ** np.arange(prop + 1.0))[dists]
    if fiber > 1:
        nb = m * fiber * fiber
        if integer:
            vals = (rng.integers(-3, 4, size=nb)
                    + 1j * rng.integers(-3, 4, size=nb)).astype(np.complex128)
        else:
            vals = _complex_gaussians(rng, nb) * np.repeat(np.abs(vals),
                                                           fiber * fiber)
        vals = vals.reshape(m, fiber, fiber)
    # the picks' positions in CSR order, and their ranks among the draws
    sel = np.flatnonzero(picked[order])
    rank = np.empty(len(picked), dtype=np.intp)
    rank[drawn] = np.arange(m)
    perm = rank[order[sel]]
    indptr = np.searchsorted(sel, ptr).astype(np.int32)
    n = window.n_points
    if fiber == 1:
        mat = sp.csr_matrix((vals[perm], csr_cols[sel], indptr), shape=(n, n))
    else:
        mat = sp.bsr_matrix((vals[perm], csr_cols[sel], indptr),
                            shape=(n * fiber,) * 2).tocsr()
    A = BandedOperator(window, mat, fiber)
    nonzero = vals.reshape(m, fiber * fiber).any(axis=1)
    A._prop = int(dists[nonzero].max(initial=0))
    return A


# -- serialization -------------------------------------------------------------------

def to_json_dict(A: BandedOperator) -> dict:
    f = A.fiber
    coo = A.mat.tocoo()
    blocks = {}
    for r, c, v in zip(coo.row, coo.col, coo.data):
        key = (int(r // f), int(c // f))
        blk = blocks.setdefault(key, np.zeros((f, f), dtype=np.complex128))
        blk[r % f, c % f] = v
    entries = []
    for (p, q), blk in sorted(blocks.items()):
        entries.append({"row": p, "col": q,
                        "block": [[[z.real, z.imag] for z in rowvals]
                                  for rowvals in blk]})
    return {"fiber": f, "entries": entries, "window": A.window.descriptor()}


def from_json_dict(d: dict, window: Window) -> BandedOperator:
    f = int(d.get("fiber", 1))
    rows = []
    cols = []
    vals = []
    for e in d["entries"]:
        p, q = int(e["row"]), int(e["col"])
        blk = e["block"]
        if len(blk) != f or any(len(r) != f for r in blk):
            raise DegreeError("opalg.from_json_dict: block shape does not "
                              "match the fiber dimension")
        for i in range(f):
            for j in range(f):
                re, im = blk[i][j]
                if re or im:
                    rows.append(p * f + i)
                    cols.append(q * f + j)
                    vals.append(complex(re, im))
    mat = sp.csr_matrix((vals, (rows, cols)),
                        shape=(window.n_points * f,) * 2)
    return BandedOperator(window, mat, f)


def save_operator(A: BandedOperator, path: str):
    with open(path, "w") as fh:
        json.dump(to_json_dict(A), fh, indent=1)
