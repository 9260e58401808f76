"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Each test runs the corresponding suite check (fixed sizes, seeded,
deterministic), asserts the criterion at its stated tolerance, and asserts
the criterion's runtime budget.
"""

import pytest

from coarselab import suite


def _report(result, budget):
    print(result.line())
    assert result.passed, result.details
    assert result.elapsed < budget, (
        f"{result.name} exceeded its runtime budget: "
        f"{result.elapsed:.1f}s >= {budget}s")
    return result


def test_criterion_01_boundary_identities():
    # d^2 = 0 on chains and both coboundary conventions square to zero,
    # exact arithmetic, 500 instances per degree, < 5 s
    r = _report(suite.check_boundary_identities(), 5)
    assert r.details["instances"] == 500
    assert r.details["chains_exact"]
    assert r.details["coboundary_full"] and r.details["coboundary_from1"]


def test_criterion_02_pairing_adjointness_and_descent():
    # <d phi, c> = <phi, d c> and <phi, c + d b> = <phi, c> for closed phi,
    # exact, 200 instances, < 5 s
    r = _report(suite.check_pairing_adjointness(), 5)
    assert r.details["instances"] == 200
    assert r.details["adjoint_exact"] and r.details["descent_exact"]


def test_criterion_03_chain_map_identity():
    # sup residual of d(chi(t)) - chi(b t) < 1e-9 over 200 seeded tensors per
    # degree in {1, 2} on 1-D and 2-D windows W=32, margin 12, < 60 s
    r = _report(suite.check_chain_map(), 60)
    assert r.details["max_residual"] < 1e-9
    assert r.details["tensors"] == 800


def test_criterion_04_cyclic_invariance():
    # chi(lambda t) = chi(t) exactly on every tested tensor
    r = _report(suite.check_cyclic_invariance(), 30)
    assert r.details["exact"]


def test_criterion_05_product_estimate():
    # dominating-function product inequality at every even R <= 16 for 100
    # seeded pairs on W=32, < 60 s
    r = _report(suite.check_product_estimate(), 60)
    assert r.details["pairs"] == 100
    assert r.details["max_lhs_over_rhs"] <= 1
    # pinned: the probe pass's tables, one bincount each, sum every mass in
    # the order that one bincount per radius did
    assert r.details["min_slack"].hex() == "0x1.29fa7028d8070p+1"
    assert r.details["max_lhs_over_rhs"].hex() == "0x1.5168527211cabp-3"


def test_criterion_06_power_estimate():
    # iterated-power inequality for n <= 4, R <= 16, 50 seeded operators, < 60 s
    r = _report(suite.check_power_estimate(), 60)
    assert r.details["operators"] == 50 and r.details["nmax"] == 4
    assert r.details["max_lhs_over_rhs"] <= 1
    assert r.details["max_lhs_over_rhs"].hex() == "0x1.ed7f786f93a0fp-4"


def test_criterion_07_neumann_inverse_bound():
    # inverse decay-norm bound for 50 seeded operators per n in {1,2,3}, < 60 s
    r = _report(suite.check_neumann(), 60)
    assert r.details["operators_per_n"] == 50
    assert r.details["max_excess"] <= 0
    # the unclamped ratio shows how close the bound comes to binding
    assert r.details["max_lhs_over_rhs"] <= 1
    # pinned: the lower decay norms, op_lower with no probe pass where the
    # tail bound rules every shell out, are the floats the full pass gives
    assert r.details["max_lhs_over_rhs"].hex() == "0x1.faeadfdcc660dp-1"
    assert r.details["max_excess"] == 0.0
    # the inverses' decay shells, bounded above without an SVD, stay far
    # below op_lower
    assert r.details["max_shell_ratio_upper"].hex() == "0x1.461b7d60b5579p-5"


def test_criterion_08_fill_chain_map_and_roundtrip():
    # d(fill) = fill(d) exactly and roundtrip identity on unit chains,
    # 200 instances, < 30 s
    r = _report(suite.check_fill_chain_map(), 30)
    assert r.details["instances"] == 200
    assert r.details["chain_map_exact"] and r.details["roundtrip_exact"]


def test_criterion_09_crucial_estimate():
    # sup-norm filling bound with measured constants and the derived exponent,
    # 200 random chains on the 2-D window W=24, < 60 s
    r = _report(suite.check_crucial_estimate(), 60)
    assert r.details["chains"] == 200
    assert r.details["max_lhs_over_rhs"] <= 1


def test_criterion_10_winding_index_demo():
    # pairing/index ratio constant to 1e-9 across k in {1..4}; stripped
    # pairing at k=1 equals -1 to 1e-10; exact rank oracle; < 10 s
    r = _report(suite.check_winding(), 10)
    assert r.details["ratio_spread"] < 1e-9
    assert r.details["k1_stripped"] == pytest.approx(-1, abs=1e-10)
    assert r.details["oracle_indices"] == [-1, -2, -3, -4]


def test_criterion_11_growth_fits():
    # exponents within +-0.2 of 1 and 2 for the lattice lines/planes at W=16,
    # Heisenberg within [3.2, 4.8], tree flagged exponential, < 30 s
    r = _report(suite.check_growth_fits(), 30)
    assert abs(r.details["M_z1"] - 1) <= 0.2
    assert abs(r.details["M_z2"] - 2) <= 0.2
    assert 3.2 <= r.details["M_heis"] <= 4.8
    assert r.details["tree_exponential"]


def test_criterion_12_pairing_continuity_trend():
    # max ratio |<jump, sigma>| / ||sigma||_{inf,3} shows no growth trend
    # across W in {16, 24, 32}: every window's ratio <= 1.2 x the ratio at
    # the smallest window W=16, < 30 s
    r = _report(suite.check_continuity_trend(), 30)
    ratios = [r.details[f"max_ratio_W{W}"] for W in (16, 24, 32)]
    assert max(ratios) <= 1.2 * r.details["max_ratio_W16"]
