"""Command-line surface: pipelines, determinism, exit codes."""

import json

import numpy as np
import pytest

from coarselab import cli, opalg, spaces


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
    err = capsys.readouterr().err
    assert "demo_winding" in err


def test_suite_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"not_a_key": 1}))
    assert run(["suite", "run", "--config", str(cfg)]) == 2


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
