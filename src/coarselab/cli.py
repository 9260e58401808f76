"""coarselab command-line front end.

Subcommands: space gen; op gen|mu-profile|verify-product|verify-power|neumann;
chain gen|norm; cochain pair|sweep; fill run|verify-estimate; chi;
chain-map-check; demo winding|degree0|tree; suite run.

Each handler loads its inputs, calls the library and prints one JSON line
through the encoder `suite.plain` (dataclass reports print whole, complex
numbers as {"re", "im"}).  Chain, operator and tensor files embed their
window descriptor; --window overrides it.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage/precondition error
(including input files that are not JSON or lack a required field).
CSV files open with a versioned schema comment line followed by the header
row.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import cochain, cyclic, fill, opalg, spaces, suite, ufchain
from .errors import CoarselabError, PreconditionError

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def write_csv(path: str, kind: str, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: coarselab.{kind}.v1\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _emit(blob, passed=True) -> int:
    print(json.dumps(suite.plain(blob)))
    return EXIT_PASS if passed else EXIT_CHECK_FAILED


def _read(path: str, build):
    """build(d) for the JSON object d in the file at path; a file that is not
    a JSON object or lacks a field build needs is a precondition error."""
    try:
        with open(path) as fh:
            d = json.load(fh)
        if not isinstance(d, dict):
            raise TypeError("not a JSON object")
        return build(d)
    except (ValueError, KeyError, TypeError) as exc:
        raise PreconditionError(
            f"cli: malformed input file {path}: {type(exc).__name__}: {exc}") from exc


def _window(args, embedded: dict | None = None) -> spaces.Window:
    if getattr(args, "window", None):
        return _read(args.window, spaces.window_from_descriptor)
    if embedded is not None and "window" in embedded:
        return spaces.window_from_descriptor(embedded["window"])
    raise PreconditionError("cli: no window given (pass --window w.json or use "
                            "a file that embeds its window descriptor)")


def _load(path: str, args, from_json):
    """(object, window) for a chain, operator or tensor file."""
    def build(d):
        w = _window(args, d)
        return from_json(d, w), w
    return _read(path, build)


def _first_coordinate(spec: str, window: spaces.Window):
    """Refuse a spec that reads a point's first coordinate on a window whose
    points have none (a tree's root is the empty path)."""
    if window.coords is None:
        raise PreconditionError(f"cli: spec {spec!r} reads a first coordinate; "
                                f"{window.kind} window points have none")


def _spec_int(spec: str, parts: list, k: int, default: int | None = None) -> int:
    """The integer in part k of a spec, or default when the spec stops
    before it; a missing or non-integer part is a precondition error."""
    if k >= len(parts) and default is not None:
        return default
    try:
        return int(parts[k])
    except (IndexError, ValueError):
        raise PreconditionError(
            f"cli: spec {spec!r} needs an integer in part {k}") from None


def _parse_cochain(spec: str, window: spaces.Window) -> cochain.CoarseCochain:
    parts = spec.split(":")
    if parts[0] == "jump":
        return cochain.Jump(_spec_int(spec, parts, 1, 0), _spec_int(spec, parts, 2, 0))
    if parts[0] == "range":
        _first_coordinate(spec, window)
        lo, hi = _spec_int(spec, parts, 1), _spec_int(spec, parts, 2)
        return cochain.Indicator(predicate=lambda lb: lo <= lb[0] <= hi)
    if parts[0] == "point":
        return cochain.Indicator(points=[window.index_of((_spec_int(spec, parts, 1),))])
    if parts[0] == "tablefile":
        return _read(parts[1], lambda d: cochain.Table(
            d["degree"], {tuple(t["tuple"]): complex(t["re"], t.get("im", 0))
                          for t in d["terms"]}))
    raise PreconditionError(f"cli: unknown cochain spec {spec!r} "
                            "(use jump:axis:thr, range:a:b, point:x, "
                            "tablefile:path)")


def _parse_projection(spec: str, window: spaces.Window) -> opalg.BandedOperator:
    parts = spec.split(":")
    if parts[0] == "even":
        _first_coordinate(spec, window)
        return opalg.diag_indicator(window, lambda lb: lb[0] % 2 == 0)
    if parts[0] == "site":
        return opalg.site_projection(window, window.index_of((_spec_int(spec, parts, 1),)))
    if parts[0] == "opfile":
        return _read(parts[1], lambda d: opalg.from_json_dict(d, window))
    raise PreconditionError(f"cli: unknown projection spec {spec!r} "
                            "(use even, site:x, opfile:path)")


def _rmax(args, w: spaces.Window) -> int:
    # default: the window's margin, the largest radius a profile may read
    return w.margin if args.rmax is None else args.rmax


def _safe_radius(args, w: spaces.Window) -> int:
    # default: every point of every tuple margin-safe
    return w.margin + args.max_len if args.safe_radius is None else args.safe_radius


# -- subcommand handlers -------------------------------------------------------------

def cmd_space_gen(args) -> int:
    w = spaces.make_window(args.kind, args.radius, args.margin,
                           args.metric, dim=args.dim)
    desc = w.descriptor()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(desc, fh, indent=1)
    return _emit({"window": desc, "points": w.n_points,
                  "safe_points": len(w.safe_points)})


def cmd_op_gen(args) -> int:
    A = opalg.random_banded(_window(args), args.seed, args.prop, decay=args.decay,
                            fiber=args.fiber, density=args.density)
    opalg.save_operator(A, args.out)
    return _emit({"nnz": A.nnz, "propagation": A.propagation,
                  "out": args.out})


def cmd_op_mu_profile(args) -> int:
    A, w = _load(args.op, args, opalg.from_json_dict)
    prof = opalg.mu_profile(A, _rmax(args, w))
    if args.csv:
        write_csv(args.csv, "mu_profile", ["R", "mu_lower", "mu_upper"],
                  [(r["R"], r["mu_lower"], r["mu_upper"]) for r in prof.table()])
    return _emit({"op_norm": prof.op, "profile": prof.table(),
                  "probe_svds": prof.probe_svds,
                  "probe_skips": prof.probe_skips})


def cmd_op_verify_product(args) -> int:
    if (args.op is None) != (args.op2 is None):
        raise PreconditionError("cli: verify-product checks --op with --op2; "
                                "give both or neither")
    if args.op is not None:
        A, w = _load(args.op, args, opalg.from_json_dict)
        B = _read(args.op2, lambda d: opalg.from_json_dict(d, w))
        tables = [opalg.check_product_estimate(A, B, _rmax(args, w))]
    else:
        w = _window(args)
        tables = []
        for i in range(args.pairs):
            A = opalg.random_banded(w, (args.seed, i, 0), args.prop,
                                    decay=args.decay)
            B = opalg.random_banded(w, (args.seed, i, 1), args.prop,
                                    decay=args.decay)
            tables.append(opalg.check_product_estimate(A, B, _rmax(args, w)))
    ok = all(t.passed for t in tables)
    if args.csv:
        rows = [(i, r.R, r.lhs, r.rhs, r.ok)
                for i, t in enumerate(tables) for r in t.rows]
        write_csv(args.csv, "product_estimate",
                  ["pair", "R", "lhs", "rhs", "ok"], rows)
    return _emit({"pairs": len(tables), "passed": ok}, ok)


def cmd_op_verify_power(args) -> int:
    if args.op:
        A, _ = _load(args.op, args, opalg.from_json_dict)
    else:
        A = opalg.random_banded(_window(args), args.seed, args.prop,
                                decay=args.decay)
    nrm = opalg.op_norm(A)
    if nrm > 1:
        A = A.scale(0.95 / nrm)
        print(f"note: operator normalized by 0.95/{nrm:.4f} to satisfy the "
              "norm precondition", file=sys.stderr)
    tab = opalg.check_power_estimate(A, args.nmax, _rmax(args, A.window))
    by_n = []
    for n in range(1, args.nmax + 1):
        rows = [r for r in tab.rows if r.n == n]
        by_n.append({"n": n, "passed": all(r.ok for r in rows),
                     "min_slack": min((r.rhs - r.lhs for r in rows), default=None)})
    return _emit({"rows": len(tab.rows), "passed": tab.passed, "by_n": by_n},
                 tab.passed)


def cmd_op_neumann(args) -> int:
    B, _ = _load(args.op, args, opalg.from_json_dict)
    _, rep = opalg.neumann_inverse(B, args.n, tol=args.tol)
    return _emit(rep, rep.passed)


def cmd_chain_gen(args) -> int:
    w = _window(args)
    c = ufchain.random_chain(w, args.degree, args.terms, args.max_len,
                             args.seed, coeff=args.coeff,
                             safe_radius=_safe_radius(args, w))
    ufchain.save_chain(c, args.out)
    return _emit({"degree": c.degree, "terms": len(c),
                  "propagation": c.propagation, "out": args.out})


def cmd_chain_norm(args) -> int:
    c, _ = _load(args.chain, args, ufchain.from_json_dict)
    out = {"norm_inf_n": ufchain.norm_inf_n(c, args.n),
           "graded_norm": ufchain.graded_norm(c, args.n)}
    if args.shell is not None:
        out["shell_norm"] = ufchain.shell_norm(c, args.shell)
    return _emit(out)


def cmd_cochain_pair(args) -> int:
    c, w = _load(args.chain, args, ufchain.from_json_dict)
    return _emit(complex(cochain.pair(_parse_cochain(args.cochain, w), c)))


def cmd_cochain_sweep(args) -> int:
    w = _window(args)
    phi = _parse_cochain(args.cochain, w)
    safe_radius = _safe_radius(args, w)

    def sampler(s):
        return ufchain.random_chain(w, phi.degree, args.terms, args.max_len,
                                    s, coeff="complex", safe_radius=safe_radius)

    res = cochain.continuity_sweep(phi, sampler, args.n, args.trials,
                                   seed=args.seed)
    if args.csv:
        rows = [(r.trial, r.pairing.real, r.pairing.imag, r.norm, r.ratio)
                for r in res.rows]
        write_csv(args.csv, "pairing_sweep",
                  ["trial", "pairing_re", "pairing_im", "norm", "ratio"], rows)
    return _emit({"max_ratio": res.max_ratio, "trials": args.trials,
                  "trivial": res.trivial})


def cmd_fill_run(args) -> int:
    c, _ = _load(args.chain, args, ufchain.from_json_dict)
    filled = fill.fill_chain(c)
    out = {"simplices": len(filled), "sup_norm": filled.sup_norm()}
    if c.degree >= 1:
        residual = ufchain.boundary(filled) - fill.fill_chain(ufchain.boundary(c))
        out["chain_map_residual"] = residual.sup_norm()
    return _emit(out)


def cmd_fill_verify_estimate(args) -> int:
    c, _ = _load(args.chain, args, ufchain.from_json_dict)
    rep = fill.verify_crucial_estimate(c)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(suite.plain(rep), fh, indent=1)
    if args.csv:
        write_csv(args.csv, "fill_profile", ["R", "s_prime"],
                  sorted(rep.s_profile.items()))
    return _emit(rep, rep.passed)


def _tensor_from_json(d: dict, w: spaces.Window) -> cyclic.CyclicTensor:
    terms = []
    for t in d["terms"]:
        weight = complex(t["weight"][0], t["weight"][1])
        ops = tuple(opalg.from_json_dict(o, w) for o in t["ops"])
        terms.append((weight, ops))
    return cyclic.CyclicTensor(d["degree"], terms, d.get("tau_power", 0))


def cmd_chi(args) -> int:
    if args.tensor:
        t, _ = _load(args.tensor, args, _tensor_from_json)
    elif args.chern1 is not None:
        t = cyclic.chern1(opalg.winding_unitary(_window(args), args.chern1), 0)
    else:
        raise PreconditionError("cli: chi needs --tensor t.json or --chern1 k")
    chain = cyclic.chi(t)
    ufchain.save_chain(chain, args.out)
    return _emit({"degree": chain.degree, "terms": len(chain),
                  "tau_power": t.tau_power, "out": args.out})


def cmd_chain_map_check(args) -> int:
    w = spaces.make_window("zd", args.W, args.margin, dim=args.dim)

    def one(i):
        ops = tuple(opalg.random_banded(w, (args.seed, i, j), prop=2,
                                        decay=0.7, density=0.3)
                    for j in range(args.degree + 1))
        return cyclic.chain_map_check(
            cyclic.CyclicTensor(args.degree, [(1.0, ops)]))

    worst = max((one(i) for i in range(args.trials)), default=0.0)
    ok = worst < 1e-9
    return _emit({"trials": args.trials, "max_residual": worst, "passed": ok}, ok)


def cmd_demo_winding(args) -> int:
    return _emit(suite.demo_winding(args.k, args.W, args.margin))


def cmd_demo_degree0(args) -> int:
    w = _window(args) if args.window else spaces.make_window("zd", 16, 4, dim=1)
    e = _parse_projection(args.e, w)
    phi = _parse_cochain(args.phi, w)
    return _emit(suite.demo_degree0(w, e, phi))


def cmd_demo_tree(args) -> int:
    rep = suite.demo_tree_fundamental_class(args.W)
    return _emit(rep, rep.tree_exact and rep.z_expected_fail)


def cmd_suite_run(args) -> int:
    report = suite.run_suite()
    print(f"suite: {'PASS' if report.passed else 'FAIL'} "
          f"({report.wall_clock:.1f}s)")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.as_dict(), fh, indent=1)
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILED


# -- parser ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="coarselab",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_window(sp):
        sp.add_argument("--window", help="window descriptor JSON file")

    sp = sub.add_parser("space", help="window construction")
    ssub = sp.add_subparsers(dest="sub", required=True)
    g = ssub.add_parser("gen", help="generate a window descriptor")
    g.add_argument("--kind", required=True,
                   choices=["zd", "interval_z", "heisenberg3", "tree3"])
    g.add_argument("--dim", type=int, default=None)
    g.add_argument("--radius", type=int, required=True)
    g.add_argument("--margin", type=int, default=0)
    g.add_argument("--metric", default=None)
    g.add_argument("--out")
    g.set_defaults(fn=cmd_space_gen)

    op = sub.add_parser("op", help="operator generation and checks")
    osub = op.add_subparsers(dest="sub", required=True)
    g = osub.add_parser("gen")
    add_window(g)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--prop", type=int, default=3)
    g.add_argument("--decay", type=float, default=0.6)
    g.add_argument("--density", type=float, default=0.5)
    g.add_argument("--fiber", type=int, default=1)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_op_gen)
    g = osub.add_parser("mu-profile")
    add_window(g)
    g.add_argument("--op", required=True)
    g.add_argument("--rmax", type=int, default=None,
                   help="largest radius (default: the window's margin)")
    g.add_argument("--csv")
    g.set_defaults(fn=cmd_op_mu_profile)
    g = osub.add_parser("verify-product")
    add_window(g)
    g.add_argument("--op")
    g.add_argument("--op2")
    g.add_argument("--seed", type=int, default=7)
    g.add_argument("--pairs", type=int, default=20)
    g.add_argument("--prop", type=int, default=3)
    g.add_argument("--decay", type=float, default=0.6)
    g.add_argument("--rmax", type=int, default=None,
                   help="largest radius (default: the window's margin)")
    g.add_argument("--csv")
    g.set_defaults(fn=cmd_op_verify_product)
    g = osub.add_parser("verify-power")
    add_window(g)
    g.add_argument("--op")
    g.add_argument("--seed", type=int, default=7)
    g.add_argument("--prop", type=int, default=2)
    g.add_argument("--decay", type=float, default=0.5)
    g.add_argument("--nmax", type=int, default=4)
    g.add_argument("--rmax", type=int, default=None,
                   help="largest radius (default: the window's margin)")
    g.set_defaults(fn=cmd_op_verify_power)
    g = osub.add_parser("neumann")
    add_window(g)
    g.add_argument("--op", required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--tol", type=float, default=1e-13)
    g.set_defaults(fn=cmd_op_neumann)

    ch = sub.add_parser("chain", help="uniformly finite chains")
    csub = ch.add_subparsers(dest="sub", required=True)
    g = csub.add_parser("gen")
    add_window(g)
    g.add_argument("--degree", type=int, required=True)
    g.add_argument("--terms", type=int, default=8)
    g.add_argument("--max-len", dest="max_len", type=int, default=4)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--coeff", choices=["int", "complex"], default="complex")
    g.add_argument("--safe-radius", dest="safe_radius", type=int, default=None,
                   help="anchor distance from the edge (default margin + max-len)")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_chain_gen)
    g = csub.add_parser("norm")
    add_window(g)
    g.add_argument("--chain", required=True)
    g.add_argument("--n", type=float, default=0)
    g.add_argument("--shell", type=int, default=None)
    g.set_defaults(fn=cmd_chain_norm)

    co = sub.add_parser("cochain", help="coarse cochains and pairings")
    cosub = co.add_subparsers(dest="sub", required=True)
    g = cosub.add_parser("pair")
    add_window(g)
    g.add_argument("--cochain", required=True)
    g.add_argument("--chain", required=True)
    g.set_defaults(fn=cmd_cochain_pair)
    g = cosub.add_parser("sweep")
    add_window(g)
    g.add_argument("--cochain", required=True)
    g.add_argument("--n", type=float, default=3)
    g.add_argument("--trials", type=int, default=500)
    g.add_argument("--seed", type=int, default=7)
    g.add_argument("--terms", type=int, default=40)
    g.add_argument("--max-len", dest="max_len", type=int, default=6)
    g.add_argument("--safe-radius", dest="safe_radius", type=int, default=None,
                   help="anchor distance from the edge (default margin + max-len)")
    g.add_argument("--csv")
    g.set_defaults(fn=cmd_cochain_sweep)

    fl = sub.add_parser("fill", help="simplicial filling")
    fsub = fl.add_subparsers(dest="sub", required=True)
    g = fsub.add_parser("run")
    add_window(g)
    g.add_argument("--chain", required=True)
    g.set_defaults(fn=cmd_fill_run)
    g = fsub.add_parser("verify-estimate")
    add_window(g)
    g.add_argument("--chain", required=True)
    g.add_argument("--out")
    g.add_argument("--csv", help="certified contractibility profile rows (R, S'(R))")
    g.set_defaults(fn=cmd_fill_verify_estimate)

    g = sub.add_parser("chi", help="rough character of a cyclic tensor")
    add_window(g)
    g.add_argument("--tensor")
    g.add_argument("--chern1", type=int, default=None,
                   help="use the odd character of the k-fold shift instead")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_chi)

    g = sub.add_parser("chain-map-check",
                       help="boundary-vs-character residual sweep")
    g.add_argument("--seed", type=int, default=7)
    g.add_argument("--trials", type=int, default=200)
    g.add_argument("--degree", type=int, default=1, choices=[1, 2, 3])
    g.add_argument("--W", type=int, default=32)
    g.add_argument("--margin", type=int, default=12)
    g.add_argument("--dim", type=int, default=1)
    g.set_defaults(fn=cmd_chain_map_check)

    dm = sub.add_parser("demo", help="index demos")
    dsub = dm.add_subparsers(dest="sub", required=True)
    g = dsub.add_parser("winding")
    g.add_argument("--k", type=int, default=1)
    g.add_argument("--W", type=int, default=28)
    g.add_argument("--margin", type=int, default=20)
    g.set_defaults(fn=cmd_demo_winding)
    g = dsub.add_parser("degree0")
    add_window(g)
    g.add_argument("--e", default="even", help="even | site:x | opfile:path")
    g.add_argument("--phi", default="range:0:9",
                   help="range:a:b | point:x | jump:axis:thr | tablefile:path")
    g.set_defaults(fn=cmd_demo_degree0)
    g = dsub.add_parser("tree")
    g.add_argument("--W", type=int, default=6)
    g.set_defaults(fn=cmd_demo_tree)

    st = sub.add_parser("suite", help="acceptance suite")
    stsub = st.add_subparsers(dest="sub", required=True)
    g = stsub.add_parser("run")
    g.add_argument("--json", help="write the full report to this file")
    g.set_defaults(fn=cmd_suite_run)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CoarselabError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
