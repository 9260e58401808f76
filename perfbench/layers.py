"""What the traced run wraps, the counts it takes, and the per-layer metrics.

Every per-layer metric is named ``<module>.<function>.<stat>``.  ``self_s`` is
the span time minus the time of the wrapped calls inside it, summed over the
traced run; counts are totals over the same run.  A metric whose function
never ran in a workload (or no longer exists) reads 0.
"""

from __future__ import annotations

import numpy as np

from tracer import Tracer

TARGETS = [
    ("spaces", "make_window"),
    ("spaces", "Window.dist"),
    ("spaces", "Window.dist_many"),
    ("spaces", "Window.dist_cross"),
    ("spaces", "Window.tuple_length"),
    ("spaces", "ball_volume"),
    ("spaces", "quasi_lattice_check"),
    ("spaces", "fit_growth"),
    ("opalg", "random_banded"),
    ("opalg", "op_norm"),
    ("opalg", "mu_profile"),
    ("opalg", "check_product_estimate"),
    ("opalg", "check_power_estimate"),
    ("opalg", "neumann_inverse"),
    ("_accel", "coalesce"),
    ("cyclic", "chi"),
    ("cyclic", "chi_arrays"),
    ("cyclic", "hochschild_b"),
    ("cyclic", "chain_map_check"),
    ("ufchain", "random_chain"),
    ("ufchain", "boundary"),
    ("ufchain", "boundary_arrays"),
    ("ufchain", "norm_inf_n"),
    ("cochain", "pair"),
    ("cochain", "evaluate"),
    ("cochain", "continuity_sweep"),
    ("fill", "fill_tuple"),
    ("fill", "fill_chain"),
    ("fill", "contractibility_profile"),
    ("fill", "verify_crucial_estimate"),
    ("suite", "toeplitz_index_oracle"),
    ("suite", "demo_winding"),
    ("suite", "demo_tree_fundamental_class"),
]

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _mu_profile(tr, args, kwargs, p):
    tr.count("opalg.mu_profile.profiles")
    tr.count("opalg.mu_profile.uncertified", int(np.any(p.lower > p.upper)))


def _check_table(tr, args, kwargs, table):
    for row in table.rows:
        if row.rhs > 0:
            tr.count_min("opalg.certificate.min_rel_slack", (row.rhs - row.lhs) / row.rhs)


def _neumann(tr, args, kwargs, result):
    rep = result[1]
    limit = rep.bound + rep.slack
    tr.count_min("opalg.certificate.min_rel_slack", (limit - rep.measured) / limit)


def _coalesce(tr, args, kwargs, result):
    tr.count("accel.coalesce.rows_in", len(_arg(args, kwargs, 1, "values")))
    tr.count("accel.coalesce.rows_out", len(result[1]))


def _fill_tuple(tr, args, kwargs, result):
    window = _arg(args, kwargs, 0, "window")
    tup = _arg(args, kwargs, 1, "tup")
    # keyed on the window itself (Windows hash by identity): the set keeps every
    # window alive, so a freed window's id cannot be reused for a new one
    tr.count_distinct("fill.fill_tuple.distinct", (window, tuple(int(p) for p in tup)))


def _crucial(tr, args, kwargs, rep):
    if rep.rhs > 0:
        tr.count_max("fill.verify_crucial_estimate.max_lhs_over_rhs", rep.lhs / rep.rhs)


HOOKS = {
    "opalg.random_banded": lambda tr, a, k, op: tr.count("opalg.random_banded.nnz", op.mat.nnz),
    "opalg.mu_profile": _mu_profile,
    "opalg.check_product_estimate": _check_table,
    "opalg.check_power_estimate": _check_table,
    "opalg.neumann_inverse": _neumann,
    "accel.coalesce": _coalesce,
    "cyclic.chi_arrays": lambda tr, a, k, res: tr.count("cyclic.chi_arrays.rows_out",
                                                        len(res[1])),
    "cyclic.chain_map_check": lambda tr, a, k, r: tr.count_max(
        "cyclic.chain_map_check.max_residual", r),
    "spaces.Window.dist_cross": lambda tr, a, k, D: tr.count("spaces.Window.dist_cross.pairs",
                                                             D.size),
    "fill.fill_tuple": _fill_tuple,
    "fill.verify_crucial_estimate": _crucial,
}


def make_tracer() -> Tracer:
    return Tracer(TARGETS, HOOKS)


def uncertified_frac(tr: Tracer) -> float:
    profiles = tr.counts.get("opalg.mu_profile.profiles", 0)
    return tr.counts.get("opalg.mu_profile.uncertified", 0) / profiles if profiles else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def _self(name):
    return ("s", "lower", lambda tr, run: tr.stats(name)[1])


def _calls(name):
    return ("count", "lower", lambda tr, run: tr.stats(name)[0])


def _count(key, unit="count", better="lower"):
    return (unit, better, lambda tr, run: tr.counts.get(key, 0))


PER_LAYER = {
    "opalg.random_banded.self_s": _self("opalg.random_banded"),
    "opalg.random_banded.calls": _calls("opalg.random_banded"),
    "opalg.random_banded.nnz": _count("opalg.random_banded.nnz"),
    "cyclic.chi_arrays.self_s": _self("cyclic.chi_arrays"),
    "cyclic.chi_arrays.calls": _calls("cyclic.chi_arrays"),
    "cyclic.chi_arrays.rows_out": _count("cyclic.chi_arrays.rows_out"),
    "cyclic.hochschild_b.self_s": _self("cyclic.hochschild_b"),
    "cyclic.chain_map_check.self_s": _self("cyclic.chain_map_check"),
    "cyclic.chain_map_check.max_residual": _count("cyclic.chain_map_check.max_residual", "1"),
    "accel.coalesce.self_s": _self("accel.coalesce"),
    "accel.coalesce.calls": _calls("accel.coalesce"),
    "accel.coalesce.rows_in": _count("accel.coalesce.rows_in"),
    "accel.coalesce.rows_out": _count("accel.coalesce.rows_out"),
    "accel.coalesce.keep_ratio": ("ratio", "higher", lambda tr, run: _ratio(
        tr.counts.get("accel.coalesce.rows_out", 0),
        tr.counts.get("accel.coalesce.rows_in", 0))),
    "opalg.op_norm.self_s": _self("opalg.op_norm"),
    "opalg.op_norm.calls": _calls("opalg.op_norm"),
    "opalg.mu_profile.self_s": _self("opalg.mu_profile"),
    "opalg.mu_profile.calls": _calls("opalg.mu_profile"),
    "opalg.neumann_inverse.self_s": _self("opalg.neumann_inverse"),
    "opalg.certificate.min_rel_slack": _count("opalg.certificate.min_rel_slack", "ratio",
                                              "higher"),
    "spaces.make_window.self_s": _self("spaces.make_window"),
    "spaces.Window.dist.self_s": _self("spaces.Window.dist"),
    "spaces.Window.dist.calls": _calls("spaces.Window.dist"),
    "spaces.Window.dist_cross.self_s": _self("spaces.Window.dist_cross"),
    "spaces.Window.dist_cross.pairs": _count("spaces.Window.dist_cross.pairs"),
    "spaces.Window.dist_many.self_s": _self("spaces.Window.dist_many"),
    "spaces.quasi_lattice_check.self_s": _self("spaces.quasi_lattice_check"),
    "spaces.fit_growth.self_s": _self("spaces.fit_growth"),
    "ufchain.random_chain.self_s": _self("ufchain.random_chain"),
    "ufchain.boundary.self_s": _self("ufchain.boundary"),
    "ufchain.boundary_arrays.self_s": _self("ufchain.boundary_arrays"),
    "ufchain.norm_inf_n.self_s": _self("ufchain.norm_inf_n"),
    "cochain.pair.self_s": _self("cochain.pair"),
    "cochain.evaluate.self_s": _self("cochain.evaluate"),
    "cochain.continuity_sweep.self_s": _self("cochain.continuity_sweep"),
    "fill.fill_tuple.self_s": _self("fill.fill_tuple"),
    "fill.fill_tuple.calls": _calls("fill.fill_tuple"),
    # share of calls whose (window, tuple) argument was seen before
    "fill.fill_tuple.hit_ratio": ("ratio", "higher", lambda tr, run: _ratio(
        tr.stats("fill.fill_tuple")[0] - tr.counts.get("fill.fill_tuple.distinct", 0),
        tr.stats("fill.fill_tuple")[0])),
    "fill.fill_chain.self_s": _self("fill.fill_chain"),
    "fill.contractibility_profile.self_s": _self("fill.contractibility_profile"),
    "fill.verify_crucial_estimate.max_lhs_over_rhs": _count(
        "fill.verify_crucial_estimate.max_lhs_over_rhs", "ratio"),
    "suite.toeplitz_index_oracle.self_s": _self("suite.toeplitz_index_oracle"),
    "suite.demo_tree_fundamental_class.self_s": _self("suite.demo_tree_fundamental_class"),
    "trace.overhead_frac": ("ratio", "lower", lambda tr, run: run["overhead_frac"]),
    "trace.unattributed_s": ("s", "lower", lambda tr, run: run["unattributed_s"]),
    "uncertified_frac": ("ratio", "lower", lambda tr, run: uncertified_frac(tr)),
}
