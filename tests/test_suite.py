"""Suite plumbing: demos, the exact index oracle, clean precondition surfacing."""

import hashlib
import json

import numpy as np
import pytest

from coarselab import cochain, fill, opalg, spaces, suite
from coarselab.errors import FillError, MarginError, PreconditionError


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
    assert len(suite._exact_cokernel_rows(M)) == 1


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


def _unit_chain_supports():
    # the rng stream of check_fill_chain_map at the suite seed
    cfg = suite.DEFAULT_CONFIG
    rng = np.random.default_rng(cfg["seed"] + 7)
    w1 = spaces.make_window("zd", 20, 4, dim=1)
    w2 = spaces.make_window("zd", 14, 4, dim=2)
    out = []
    for i in range(cfg["fill_instances"]):
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


def test_run_suite_surfaces_margin_errors_cleanly():
    cfg = {"seed": 1, "boundary_instances": 2, "adjointness_instances": 2,
           "chain_map_trials": 1, "cyclic_instances": 2, "product_pairs": 1,
           "power_ops": 1, "neumann_ops": 1, "fill_instances": 2,
           "crucial_chains": 2, "winding_W": 12, "winding_margin": 0,
           "heisenberg_W": 8, "sweep_trials": 5}
    report = suite.run_suite(cfg, echo=None)
    assert not report.passed
    winding = next(c for c in report.checks if c.name == "winding")
    assert not winding.passed
    assert "margin" in winding.details["error"]
    json.dumps(report.as_dict())  # serializable


def test_run_suite_rejects_unknown_config():
    with pytest.raises(PreconditionError):
        suite.run_suite({"bogus": 1}, echo=None)


def test_checks_deterministic_across_runs():
    cfg = dict(suite.DEFAULT_CONFIG, chain_map_trials=3, crucial_chains=5)
    a = suite.check_chain_map(cfg)
    b = suite.check_chain_map(cfg)
    assert a.details == b.details
    a2 = suite.check_crucial_estimate(cfg)
    b2 = suite.check_crucial_estimate(cfg)
    assert a2.details == b2.details
