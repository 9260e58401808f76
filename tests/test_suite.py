"""Suite plumbing: demos, the exact index oracle, clean precondition surfacing."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from coarselab import cochain, cyclic, fill, opalg, spaces, suite, ufchain
from coarselab.errors import FillError, MarginError, WindowError


def test_toeplitz_oracle_shift_blocks():
    # compressed k-fold shift on sites 0..L: the localized rank count gives -k
    for k in (1, 2, 3):
        L = 12
        M = np.zeros((L + 1, L + 1), dtype=np.int64)
        for c in range(L + 1 - k):
            M[c + k, c] = 1
        assert suite.toeplitz_index_oracle(M, near_size=(L + 1) // 2) == -k
    assert suite.toeplitz_index_oracle(np.eye(9, dtype=np.int64), 4) == 0


def test_exact_kernel_cokernel():
    M = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 2]], dtype=np.int64)
    ker = suite._exact_kernel_basis(M)
    assert len(ker) == 1
    v = np.array([float(x) for x in ker[0]])
    assert np.allclose(M @ v, 0)
    assert len(suite._exact_kernel_basis(M.T)) == 1


def _fraction_kernel_basis(M):
    # Gauss-Jordan over the rationals, one Fraction per entry: the reference
    # that the fraction-free elimination must reproduce entry for entry
    m, n = M.shape
    A = [[Fraction(int(M[i, j])) for j in range(n)] for i in range(m)]
    pivots = {}
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        for i in range(m):
            if i != r and A[i][c] != 0:
                f = A[i][c] / A[r][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots[c] = r
        r += 1
    basis = []
    for c in range(n):
        if c in pivots:
            continue
        v = [Fraction(0)] * n
        v[c] = Fraction(1)
        for pc, pr in pivots.items():
            v[pc] = -A[pr][c] / A[pr][pc]
        basis.append(v)
    return basis


def _kernel_test_matrices():
    """240 seeded integer matrices with entries in [-9, 9]: rectangular,
    rank-deficient (rows and columns repeated up to sign), with zero rows
    and columns; then a dense 12 x 12, a dense 12 x 13 and a rank-6 12 x 12,
    whose elimination grows the coefficients most."""
    out = []
    for seed in range(240):
        rng = np.random.default_rng(seed)
        m, n = (int(x) for x in rng.integers(1, 10, size=2))
        M = rng.integers(-9, 10, size=(m, n))
        M[rng.random(m) < 0.3] = 0                       # sparse entries
        for _ in range(int(rng.integers(0, 3))):         # repeated rows
            M[rng.integers(m)] = rng.choice([-1, 1]) * M[rng.integers(m)]
        for _ in range(int(rng.integers(0, 3))):         # repeated columns
            M[:, rng.integers(n)] = rng.choice([-1, 1]) * M[:, rng.integers(n)]
        if seed % 4 == 0:
            M[rng.integers(m)] = 0
        if seed % 4 == 1:
            M[:, rng.integers(n)] = 0
        if seed % 3 == 0:
            M = M * (rng.random((m, n)) < 0.5)
        out.append(M.astype(np.int64))
    rng = np.random.default_rng(12)
    out.append(rng.integers(-9, 10, size=(12, 12)).astype(np.int64))
    out.append(rng.integers(-9, 10, size=(12, 13)).astype(np.int64))
    out.append((rng.integers(-1, 2, size=(12, 6))
                @ rng.integers(-1, 2, size=(6, 12))).astype(np.int64))
    return out


def test_exact_kernel_basis_matches_fraction_elimination():
    mats = _kernel_test_matrices()
    assert all(np.abs(M).max(initial=0) <= 9 for M in mats)
    assert np.linalg.matrix_rank(mats[-3]) == 12
    assert np.linalg.matrix_rank(mats[-1]) == 6
    assert any(np.linalg.matrix_rank(M) < min(M.shape) for M in mats[:-3])
    for M in mats:
        for A in (M, M.T):
            ker = suite._exact_kernel_basis(A)
            assert ker == _fraction_kernel_basis(A)
            assert all(type(x) is Fraction for v in ker for x in v)
            assert len(ker) == A.shape[1] - np.linalg.matrix_rank(A)
            for v in ker:     # A v = 0 exactly
                assert all(sum(int(a) * x for a, x in zip(row, v)) == 0
                           for row in A)
    assert len(suite._exact_kernel_basis(mats[-1])) == 6


@pytest.mark.parametrize("k", [-3, -2, -1, 0, 1, 2, 3])
def test_toeplitz_oracle_on_winding_compressions(k):
    # criterion 10's compression: the k-fold shift on W = 28 (margin 20),
    # restricted to the sites x >= 0 in increasing order
    w = spaces.make_window("zd", 28, 20, dim=1)
    u = opalg.winding_unitary(w, k)
    nonneg = sorted((p for p in range(w.n_points) if w.coords[p][0] >= 0),
                    key=lambda p: w.coords[p][0])
    sub = np.real(u.mat.toarray()[np.ix_(nonneg, nonneg)]).astype(np.int64)
    assert suite.toeplitz_index_oracle(sub, near_size=len(nonneg) // 2) == -k


def test_demo_winding_reports():
    rep = suite.demo_winding(2, 28, 20)
    assert rep.oracle_index == -2
    assert rep.pairing_stripped == pytest.approx(-2, abs=1e-9)
    assert rep.ratio == pytest.approx(1.0, abs=1e-9)
    rep0 = suite.demo_winding(0, 28, 20)
    assert rep0.oracle_index == 0 and rep0.pairing_raw == 0
    neg = suite.demo_winding(-2, 28, 20)
    assert neg.oracle_index == 2
    assert neg.pairing_stripped == pytest.approx(2, abs=1e-9)


def test_demo_winding_margin_precondition():
    with pytest.raises(MarginError):
        suite.demo_winding(4, 12, 4)


def test_demo_degree0_examples():
    w = spaces.make_window("zd", 16, 4, dim=1)
    e_even = opalg.diag_indicator(w, lambda lb: lb[0] % 2 == 0)
    phi = cochain.Indicator(predicate=lambda lb: 0 <= lb[0] <= 9)
    assert suite.demo_degree0(w, e_even, phi) == pytest.approx(5)
    zero = cochain.Table(0, {})
    assert suite.demo_degree0(w, e_even, zero) == 0
    p3 = w.index_of((3,))
    e3 = opalg.site_projection(w, p3)
    phi3 = cochain.Indicator(points=[p3])
    assert suite.demo_degree0(w, e3, phi3) == pytest.approx(1)


def test_demo_tree_exact_and_z_witness():
    rep = suite.demo_tree_fundamental_class(6)
    assert rep.tree_exact
    assert rep.tree_max_coeff <= 1
    assert rep.z_expected_fail
    assert rep.z_witness_coeff >= 11  # grows linearly with the radius


@pytest.mark.parametrize("W", [4, 6, 9])
def test_demo_tree_z_witness_coefficient(W):
    # the middle edge of the rightward routing carries one unit from every
    # margin-safe vertex of the interval [-W, W] (margin 1) at or left of it;
    # the last edge into the sink carries them all
    safe = [x for x in range(-W, W + 1) if abs(x) <= W - 1]
    rep = suite.demo_tree_fundamental_class(W)
    assert rep.z_witness_coeff == len(safe) == 2 * W - 1
    assert rep.z_expected_fail


@pytest.mark.parametrize("W, max_coeff", [
    (4, 0.9166666666666666), (5, 0.9583333333333334), (6, 0.9791666666666666),
    (7, 0.9895833333333334), (8, 0.9947916666666666)])
def test_demo_tree_pinned(W, max_coeff):
    # a leaf's inflow f_W solves 1 - f_d = (1 - f_(d-1)) / 2 from f_1 = 1/3
    rep = suite.demo_tree_fundamental_class(W)
    assert rep.tree_max_coeff == max_coeff == float(1 - Fraction(1, 3 * 2 ** (W - 2)))
    assert rep.z_witness_coeff == 2 * W - 1
    assert rep.tree_exact is True and rep.z_expected_fail is True


@pytest.mark.parametrize("W", [4, 6])
def test_tree_flow_boundary_at_leaves(W):
    # the flow chain, in units of 1/den, against a Fraction recursion; its
    # boundary is den at every vertex with children, -(inflow) at each of the
    # 3 * 2^(W-1) leaves, and sums to 0
    w = spaces.make_window("tree3", W, 1)
    t, den = suite._tree_flow(w)
    inflow = {0: Fraction(0)}
    for c in range(1, w.n_points):    # breadth-first: parents come first
        p = int(w.parent[c])
        inflow[c] = (inflow[p] + 1) / (3 if p == 0 else 2)
    assert t.support == {(c, int(w.parent[c])): inflow[c] * den
                         for c in range(1, w.n_points)}
    bt = ufchain.boundary(t)
    leaves = np.flatnonzero(w.dist_to_base == W)
    assert len(leaves) == 3 * 2 ** (W - 1)
    for c in leaves.tolist():
        assert bt.support.get((c,), 0) == -inflow[c] * den
    assert all(bt.support.get((p,), 0) == den for p in w.safe_points.tolist())
    assert len(bt) == w.n_points
    assert sum(bt.values.tolist()) == 0


def _unit_chain_supports():
    # the rng stream of check_fill_chain_map's 200 instances
    rng = np.random.default_rng(suite.SEED + 7)
    w1 = spaces.make_window("zd", 20, 4, dim=1)
    w2 = spaces.make_window("zd", 14, 4, dim=2)
    out = []
    for i in range(200):
        w = (w1, w2)[i % 2]
        q = 1 + (i // 2) % 2
        rng.integers(2 ** 31)
        out.append(sorted(suite._random_unit_chain(w, q, rng).support.items()))
    return out


def test_random_unit_chain_pinned():
    supports = _unit_chain_supports()
    digest = hashlib.sha256()
    for s in supports:
        digest.update(repr(s).encode())
    # recorded when the lookup still went through index_of under try/except
    assert digest.hexdigest()[:16] == "050f55a2dc63aacf"


def test_random_unit_chain_errors_propagate(monkeypatch):
    def refuse(self, simplex, coeff):
        raise FillError("refused")

    monkeypatch.setattr(fill.SimplicialChain, "add_simplex", refuse)
    w = spaces.make_window("zd", 6, 2, dim=2)
    with pytest.raises(FillError):
        suite._random_unit_chain(w, 1, np.random.default_rng(0))


def test_run_suite_surfaces_margin_errors_cleanly(monkeypatch, capsys):
    def refuse(k, W, margin):
        raise MarginError("suite.demo_winding: margin refused")

    monkeypatch.setattr(suite, "demo_winding", refuse)
    monkeypatch.setattr(suite, "ALL_CHECKS",
                        [suite.check_winding, suite.check_growth_fits])
    report = suite.run_suite()
    assert not report.passed
    winding = next(c for c in report.checks if c.name == "winding_index_demo")
    assert not winding.passed
    assert "margin" in winding.details["error"]
    assert [c.passed for c in report.checks] == [False, True]
    assert capsys.readouterr().out.splitlines()[0].startswith("[FAIL] winding")
    json.dumps(report.as_dict())  # serializable


CHECK_NAMES = ["boundary_identities", "pairing_adjointness", "chain_map_identity",
               "cyclic_invariance", "product_estimate", "power_estimate",
               "neumann_inverse_bound", "fill_chain_map", "crucial_estimate",
               "winding_index_demo", "growth_fits", "pairing_continuity_trend"]


def test_run_suite_names_errors_as_passes(monkeypatch, capsys):
    # a check that errors is reported under the name it passes under, the
    # name in `suite run --json`; every check builds a window first
    def refuse(*args, **kwargs):
        raise WindowError("spaces.make_window: refused")

    monkeypatch.setattr(suite.spaces, "make_window", refuse)
    report = suite.run_suite()
    assert [c.name for c in report.checks] == CHECK_NAMES
    assert all(not c.passed and "refused" in c.details["error"] for c in report.checks)
    assert [chk.check_name for chk in suite.ALL_CHECKS] == CHECK_NAMES
    capsys.readouterr()


def _chain_map_residuals():
    # check_chain_map's first three tensors: 1-D window, degree 1
    w = spaces.make_window("zd", 32, 12, dim=1)
    out = []
    for count in range(3):
        ops = tuple(opalg.random_banded(w, (suite.SEED + 2, count, j), prop=2,
                                        decay=0.7, density=0.3) for j in range(2))
        out.append(cyclic.chain_map_check(cyclic.CyclicTensor(1, [(1.0, ops)])))
    return out


def _crucial_reports():
    # check_crucial_estimate's first four chains, degrees 1 and 2
    rng = np.random.default_rng(suite.SEED + 8)
    w = spaces.make_window("zd", 24, 4, dim=2)
    growth = spaces.fit_growth(w)
    profiles = {q: fill.contractibility_profile(w, q, rmax=8) for q in (1, 2)}
    out = []
    for i in range(4):
        q = 1 + i % 2
        c = ufchain.random_chain(w, q, n_terms=5, max_len=4,
                                 seed=int(rng.integers(2 ** 31)), safe_radius=9)
        out.append(fill.verify_crucial_estimate(c, growth, profiles[q]))
    return out


def test_checks_deterministic_across_runs():
    assert _chain_map_residuals() == _chain_map_residuals()
    assert _crucial_reports() == _crucial_reports()
