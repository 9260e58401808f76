"""Command-line surface: pipelines, determinism, exit codes, pinned output."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from coarselab import cli, opalg, spaces

README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv):
    return cli.main(argv)


def test_space_gen_descriptor(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert run(["space", "gen", "--kind", "zd", "--dim", "2", "--radius", "6",
                "--margin", "2", "--out", str(out)]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["points"] == 85
    desc = json.loads(out.read_text())
    assert desc == {"kind": "zd", "W": 6, "margin": 2, "metric": "l1",
                    "dim": 2}


def test_chain_pipeline(tmp_path, capsys):
    w = tmp_path / "w.json"
    c = tmp_path / "c.json"
    run(["space", "gen", "--kind", "zd", "--dim", "1", "--radius", "16",
         "--margin", "6", "--out", str(w)])
    capsys.readouterr()
    assert run(["chain", "gen", "--window", str(w), "--degree", "1",
                "--terms", "6", "--max-len", "3", "--seed", "5",
                "--out", str(c)]) == 0
    capsys.readouterr()
    # the default safe radius, margin + max-len, keeps every point safe
    window = spaces.window_from_descriptor(json.loads(w.read_text()))
    points = [p for t in json.loads(c.read_text())["terms"] for p in t["tuple"]]
    assert window.safe_mask[points].all()
    assert run(["chain", "norm", "--chain", str(c), "--n", "2",
                "--shell", "3"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert set(blob) == {"norm_inf_n", "graded_norm", "shell_norm"}
    assert run(["cochain", "pair", "--cochain", "jump:0:0",
                "--chain", str(c)]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert set(blob) == {"re", "im"}


def test_op_pipeline_and_csv_determinism(tmp_path, capsys):
    w = tmp_path / "w.json"
    op = tmp_path / "op.json"
    run(["space", "gen", "--kind", "zd", "--dim", "1", "--radius", "16",
         "--margin", "8", "--out", str(w)])
    run(["op", "gen", "--window", str(w), "--seed", "3", "--prop", "3",
         "--out", str(op)])
    capsys.readouterr()
    csv1 = tmp_path / "p1.csv"
    csv2 = tmp_path / "p2.csv"
    assert run(["op", "mu-profile", "--op", str(op), "--rmax", "6",
                "--csv", str(csv1)]) == 0
    assert run(["op", "mu-profile", "--op", str(op), "--rmax", "6",
                "--csv", str(csv2)]) == 0
    assert csv1.read_bytes() == csv2.read_bytes()
    assert csv1.read_text().splitlines()[0] == "# schema: coarselab.mu_profile.v1"


def test_mu_profile_reports_probe_counts(tmp_path, capsys):
    # every (probe, radius) matrix is either SVD'd or skipped by the bound
    w = tmp_path / "w.json"
    op = tmp_path / "op.json"
    run(["space", "gen", "--kind", "zd", "--dim", "1", "--radius", "16",
         "--margin", "8", "--out", str(w)])
    run(["op", "gen", "--window", str(w), "--seed", "5", "--prop", "3",
         "--out", str(op)])
    capsys.readouterr()
    assert run(["op", "mu-profile", "--op", str(op), "--rmax", "6"]) == 0
    blob = json.loads(capsys.readouterr().out)
    window = spaces.window_from_descriptor(json.loads(w.read_text()))
    A = opalg.from_json_dict(json.loads(op.read_text()), window)
    rows, cols, _ = A.entry_point_pairs()
    unpruned = 0
    for L in opalg._probe_subsets(window):
        hit = np.isin(cols, L)
        reach = window.dist_cross(rows[hit], L).min(axis=1).max(initial=0)
        unpruned += min(6 + 1, int(reach))
    assert blob["probe_svds"] > 0 and blob["probe_skips"] > 0
    assert blob["probe_svds"] + blob["probe_skips"] == unpruned


def test_sweep_csv_schema(tmp_path, capsys):
    w = tmp_path / "w.json"
    run(["space", "gen", "--kind", "zd", "--dim", "1", "--radius", "16",
         "--margin", "4", "--out", str(w)])
    capsys.readouterr()
    out = tmp_path / "sweep.csv"
    assert run(["cochain", "sweep", "--window", str(w), "--cochain",
                "jump:0:0", "--trials", "20", "--seed", "3", "--terms", "10",
                "--max-len", "4", "--safe-radius", "8",
                "--csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema: coarselab.pairing_sweep.v1"
    assert lines[1] == "trial,pairing_re,pairing_im,norm,ratio"


def test_fill_pipeline(tmp_path, capsys):
    w = tmp_path / "w.json"
    c = tmp_path / "c.json"
    run(["space", "gen", "--kind", "zd", "--dim", "2", "--radius", "12",
         "--margin", "4", "--out", str(w)])
    run(["chain", "gen", "--window", str(w), "--degree", "1", "--terms", "4",
         "--max-len", "3", "--seed", "2", "--safe-radius", "7",
         "--out", str(c)])
    capsys.readouterr()
    assert run(["fill", "run", "--chain", str(c)]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["chain_map_residual"] == 0
    assert run(["fill", "verify-estimate", "--chain", str(c)]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["passed"] is True


def test_chi_and_demos(tmp_path, capsys):
    w = tmp_path / "w.json"
    chain = tmp_path / "chi.json"
    run(["space", "gen", "--kind", "zd", "--dim", "1", "--radius", "24",
         "--margin", "12", "--out", str(w)])
    capsys.readouterr()
    assert run(["chi", "--window", str(w), "--chern1", "1",
                "--out", str(chain)]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["tau_power"] == 1
    assert run(["demo", "winding", "--k", "3"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["oracle_index"] == -3
    assert blob["pairing_stripped"]["re"] == pytest.approx(-3, abs=1e-9)
    assert run(["demo", "degree0", "--e", "even", "--phi", "range:0:9"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["re"] == 5
    assert run(["demo", "degree0", "--e", "site:3", "--phi", "point:3"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["re"] == 1
    assert run(["demo", "tree", "--W", "5"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["tree_exact"] is True and blob["z_expected_fail"] is True


def test_chain_map_check_cli(capsys):
    assert run(["chain-map-check", "--seed", "7", "--trials", "5",
                "--degree", "1", "--W", "20", "--margin", "10"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["passed"] is True and blob["max_residual"] < 1e-9


def test_usage_errors(tmp_path, capsys):
    # unknown cochain spec -> usage error
    w = tmp_path / "w.json"
    c = tmp_path / "c.json"
    run(["space", "gen", "--kind", "zd", "--dim", "1", "--radius", "8",
         "--margin", "2", "--out", str(w)])
    run(["chain", "gen", "--window", str(w), "--degree", "1", "--terms", "2",
         "--max-len", "2", "--seed", "1", "--out", str(c)])
    capsys.readouterr()
    assert run(["cochain", "pair", "--cochain", "nope:1",
                "--chain", str(c)]) == 2
    assert run(["chain", "norm", "--chain", "/nonexistent.json"]) == 2
    # margin precondition surfaces as usage error with the module named
    assert run(["demo", "winding", "--k", "4", "--W", "12",
                "--margin", "4"]) == 2
    assert "error: suite.demo_winding: " in capsys.readouterr().err
    assert run(["demo", "tree", "--W", "3"]) == 2
    assert "error: suite.demo_tree_fundamental_class: " in capsys.readouterr().err


def test_space_gen_over_budget_exits_2(capsys):
    # 3 * 2^17 - 2 = 393,214 tree points exceed the default budget of 200,000
    assert run(["space", "gen", "--kind", "tree3", "--radius", "17"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: spaces.make_window: tree3 window W=17 has "
                            "393214 points, budget is 200000\n")


@pytest.mark.parametrize("flag", ["--density=-0.5", "--density=1.5",
                                  "--prop=-1", "--fiber=0", "--fiber=-1"])
def test_op_gen_out_of_range_exits_2(tmp_path, capsys, flag):
    # out-of-range draw parameters are a usage error, and nothing is written
    w = tmp_path / "w.json"
    op = tmp_path / "op.json"
    run(["space", "gen", "--kind", "zd", "--dim", "1", "--radius", "8",
         "--margin", "2", "--out", str(w)])
    capsys.readouterr()
    assert run(["op", "gen", "--window", str(w), "--seed", "3", flag,
                "--out", str(op)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: opalg.random_banded: ")
    assert not op.exists()


_WINDOW = {"kind": "zd", "W": 8, "margin": 2, "metric": "l1", "dim": 1}


@pytest.mark.parametrize("text, argv", [
    ("{not json", ["chain", "norm", "--chain", "in.json"]),
    (json.dumps({"degree": 1, "window": _WINDOW}),
     ["chain", "norm", "--chain", "in.json"]),
    (json.dumps({"fiber": 1, "window": _WINDOW}),
     ["op", "mu-profile", "--op", "in.json", "--rmax", "2"]),
    (json.dumps({"W": 8, "margin": 2}),
     ["chain", "gen", "--window", "in.json", "--degree", "1", "--out", "c.json"]),
], ids=["not-json", "chain-without-terms", "operator-without-entries",
        "window-without-kind"])
def test_malformed_input_exits_2(tmp_path, monkeypatch, capsys, text, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text(text)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cli: malformed input file")


def _walkthrough():
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```console\n", 1)[1].split("```", 1)[0]
    cmds = [c.strip() for line in block.splitlines() for c in line.split(";")]
    return [shlex.split(c)[1:] for c in cmds if c.startswith("coarselab ")]


def test_readme_walkthrough_runs(tmp_path, monkeypatch, capsys):
    # every README command but `suite run` (tests/test_acceptance.py runs
    # those checks), in order, in one directory
    monkeypatch.chdir(tmp_path)
    cmds = [argv for argv in _walkthrough() if argv[:2] != ["suite", "run"]]
    assert len(cmds) == 13
    for argv in cmds:
        assert run(argv) == 0, (argv, capsys.readouterr().err)


def _out(argv, capsys):
    assert run(argv) == 0
    return capsys.readouterr().out


def test_pinned_json_output(tmp_path, capsys):
    # bytes the command printed before its output went through suite.plain
    assert _out(["demo", "winding", "--k", "3"], capsys) == (
        '{"k": 3, "pairing_raw": {"re": 0.0, "im": -18.84955592153876}, '
        '"pairing_stripped": {"re": -3.0, "im": -0.0}, "oracle_index": -3, '
        '"ratio": {"re": 1.0, "im": 0.0}}\n')
    assert _out(["demo", "tree", "--W", "5"], capsys) == (
        '{"tree_exact": true, "tree_max_coeff": 0.9583333333333334, '
        '"z_expected_fail": true, "z_witness_coeff": 9.0}\n')
    assert _out(["demo", "degree0"], capsys) == '{"re": 5.0, "im": 0.0}\n'
    w = spaces.make_window("zd", 8, 2, dim=1)
    ids = [w.index_of((x,)) for x in (-2, -1, 0, 1, 2)]
    chain = tmp_path / "c.json"
    chain.write_text(json.dumps({"degree": 1, "window": w.descriptor(), "terms": [
        {"tuple": [ids[0], ids[2]], "re": 1.5, "im": -2.0},
        {"tuple": [ids[1], ids[3]], "re": -0.25},
        {"tuple": [ids[2], ids[4]], "re": 3.0, "im": 0.5},
        {"tuple": [ids[4], ids[1]], "re": 2.0, "im": 1.0}]}))
    assert _out(["cochain", "pair", "--cochain", "jump:0:0",
                 "--chain", str(chain)], capsys) == '{"re": -0.75, "im": -3.0}\n'


def test_neumann_prints_its_report(tmp_path, capsys):
    # 0.01 on the diagonal, 0.02i on the superdiagonal of the 17-point line
    w = spaces.make_window("zd", 8, 4, dim=1)
    entries = []
    for x in range(-8, 9):
        p = w.index_of((x,))
        entries.append({"row": p, "col": p, "block": [[[0.01, 0.0]]]})
        if x < 8:
            entries.append({"row": p, "col": w.index_of((x + 1,)),
                            "block": [[[0.0, 0.02]]]})
    op = tmp_path / "b.json"
    op.write_text(json.dumps({"fiber": 1, "entries": entries,
                              "window": w.descriptor()}))
    blob = json.loads(_out(["op", "neumann", "--op", str(op), "--n", "1"], capsys))
    assert set(blob) == {"measured", "bound", "op_inverse", "terms", "tail",
                         "slack", "passed", "shell_ratio_upper"}
    assert {k: blob[k] for k in ("measured", "bound", "terms", "passed")} == {
        "measured": 1.0305991516768098, "bound": 1.0607021657370026,
        "terms": 8, "passed": True}


def test_verify_estimate_prints_its_report(tmp_path, capsys):
    w = spaces.make_window("zd", 12, 4, dim=2)
    ids = {c: w.index_of(c) for c in [(0, 0), (2, 1), (1, -1), (-1, 2), (3, 0), (3, 3)]}
    chain = tmp_path / "c.json"
    chain.write_text(json.dumps({"degree": 1, "window": w.descriptor(), "terms": [
        {"tuple": [ids[0, 0], ids[2, 1]], "re": 1.0},
        {"tuple": [ids[1, -1], ids[-1, 2]], "re": 0.5, "im": -0.5},
        {"tuple": [ids[3, 0], ids[3, 3]], "re": -2.0}]}))
    out = tmp_path / "report.json"
    blob = json.loads(_out(["fill", "verify-estimate", "--chain", str(chain),
                            "--out", str(out)], capsys))
    assert json.loads(out.read_text()) == blob
    assert blob["s_profile"] == {"1": 1, "2": 2, "3": 3, "4": 4}
    del blob["s_profile"]
    assert blob == {"C": 1.0, "N": 1.0, "D": 5.0, "M": 1.881463494520229, "q": 1,
                    "n": 5.762926989040459, "lhs": 2.0, "rhs": 17034741.91164582,
                    "passed": True, "chain_norm": 7543.937899240651}


def test_op_verify_power_reports_each_power(tmp_path, capsys):
    w = tmp_path / "w.json"
    run(["space", "gen", "--kind", "zd", "--dim", "1", "--radius", "16",
         "--margin", "8", "--out", str(w)])
    capsys.readouterr()
    assert run(["op", "verify-power", "--window", str(w), "--nmax", "2",
                "--rmax", "6"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["rows"] == 12 and blob["passed"] is True
    assert [b["n"] for b in blob["by_n"]] == [1, 2]
    assert all(b["passed"] and b["min_slack"] >= 0 for b in blob["by_n"])


def test_rmax_defaults_to_the_window_margin(tmp_path, capsys):
    # without --rmax the profile and both estimates run out to the margin
    w = tmp_path / "w.json"
    op = tmp_path / "op.json"
    run(["space", "gen", "--kind", "zd", "--dim", "1", "--radius", "16",
         "--margin", "8", "--out", str(w)])
    run(["op", "gen", "--window", str(w), "--seed", "3", "--prop", "3",
         "--out", str(op)])
    capsys.readouterr()
    blob = json.loads(_out(["op", "mu-profile", "--op", str(op)], capsys))
    assert [r["R"] for r in blob["profile"]] == list(range(9))
    blob = json.loads(_out(["op", "verify-product", "--window", str(w),
                            "--pairs", "2"], capsys))
    assert blob == {"pairs": 2, "passed": True}
    assert run(["op", "verify-product", "--op", str(op), "--op2", str(op)]) == 0
    capsys.readouterr()
    blob = json.loads(_out(["op", "verify-power", "--window", str(w),
                            "--nmax", "2"], capsys))
    assert blob["rows"] == 2 * 8 and blob["passed"] is True
    assert run(["op", "verify-power", "--op", str(op), "--nmax", "2"]) == 0


def test_verify_product_needs_both_operators(tmp_path, capsys):
    # one of --op and --op2 without the other is a usage error, not a run of
    # random pairs that ignores the operator given
    w = tmp_path / "w.json"
    op = tmp_path / "op.json"
    run(["space", "gen", "--kind", "zd", "--dim", "1", "--radius", "12",
         "--margin", "4", "--out", str(w)])
    run(["op", "gen", "--window", str(w), "--seed", "3", "--prop", "2",
         "--out", str(op)])
    capsys.readouterr()
    for flag in ("--op", "--op2"):
        assert run(["op", "verify-product", "--window", str(w), flag, str(op)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cli: verify-product checks --op with --op2")


def test_degree0_first_coordinate_specs_need_coordinates(tmp_path, capsys):
    # even and range:a:b read a point's first coordinate, which tree points
    # lack: a usage error, while the specs that name a point still run
    w = tmp_path / "tree.json"
    run(["space", "gen", "--kind", "tree3", "--radius", "3", "--out", str(w)])
    capsys.readouterr()
    for argv in ([], ["--e", "even", "--phi", "point:0"],
                 ["--e", "site:0", "--phi", "range:0:9"]):
        assert run(["demo", "degree0", "--window", str(w), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cli: spec ")
        assert "tree3 window points have none" in captured.err
    assert run(["demo", "degree0", "--window", str(w), "--e", "site:0",
                "--phi", "point:0"]) == 0
    assert json.loads(capsys.readouterr().out) == {"re": 1.0, "im": 0.0}


@pytest.mark.parametrize("argv", [
    ["--phi", "range:a:b"], ["--phi", "range:0"], ["--phi", "point:x"],
    ["--phi", "point"], ["--phi", "jump:q"], ["--phi", "jump:0:"], ["--e", "site:x"],
])
def test_degree0_malformed_spec_numbers_are_usage_errors(argv, capsys):
    assert run(["demo", "degree0", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cli: spec {argv[1]!r} needs an integer in part ")


@pytest.mark.parametrize("argv", [
    ["--kind", "tree3", "--metric", "linf"],
    ["--kind", "heisenberg3", "--metric", "l1"],
    ["--kind", "zd", "--dim", "2", "--metric", "graph"],
    ["--kind", "tree3", "--dim", "2"],
    ["--kind", "interval_z", "--dim", "2"],
    ["--kind", "interval_z", "--metric", "linf"],
], ids=["tree-linf", "heisenberg-l1", "zd-graph", "tree-dim", "interval-dim",
        "interval-linf"])
def test_space_gen_refuses_unused_metric_or_dim(tmp_path, capsys, argv):
    out = tmp_path / "w.json"
    assert run(["space", "gen", "--radius", "3", "--out", str(out), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: spaces.make_window: ")
    assert not out.exists()


def test_space_gen_interval_z_writes_a_zd_descriptor(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert run(["space", "gen", "--kind", "interval_z", "--radius", "5",
                "--margin", "2", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["points"] == 11
    assert json.loads(out.read_text()) == {"kind": "zd", "W": 5, "margin": 2,
                                           "metric": "l1", "dim": 1}
