"""Command-line interface: subcommands, exit codes, reproducible outputs."""

import json

import numpy as np
import pytest

from stablegap.cli import main, parse_domain


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------- domain shorthand ----------------


def test_parse_domain_shorthand():
    assert parse_domain("interval:-1,1").kind == "interval_union"
    assert parse_domain("rect:-2,2,-1,1").kind == "rectangle"
    assert parse_domain("disk:0,0,1").kind == "disk"
    u = parse_domain("intervals:-2,-0.5,0.5,2")
    assert u.kind == "interval_union" and len(u.params) == 2


def test_parse_domain_json():
    from stablegap import Domain

    doc = Domain.disk(0.0, 0.0, 1.0).to_json()
    d = parse_domain(json.dumps(doc))
    assert d.kind == "disk"
    assert d.params == Domain.disk(0.0, 0.0, 1.0).params


# ---------------- eig ----------------


def test_eig_interval(tmp_path, capsys):
    out_file = tmp_path / "eig.json"
    csv_file = tmp_path / "mode1.csv"
    code, _, _ = run_cli(
        ["eig", "--domain", "interval:-1,1", "--n", "64",
         "--out", str(out_file), "--csv", str(csv_file)], capsys)
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["schema"] == 1
    assert np.pi / 4 <= doc["eigenvalues"][0] <= np.pi / 2
    assert doc["star_index"] == 2
    assert doc["lambda_gap"] > 0
    cols = np.loadtxt(csv_file)
    assert cols.shape[1] == 2


def test_eig_rerun_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for f in (a, b):
        code, _, _ = run_cli(
            ["eig", "--domain", "interval:-1,1", "--n", "48", "--out", str(f)],
            capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_eig_invalid_alpha_exits_2(capsys):
    code, _, err = run_cli(
        ["eig", "--domain", "interval:-1,1", "--alpha", "3.0"], capsys)
    assert code == 2
    assert "error" in err


def test_eig_bad_domain_exits_2(capsys):
    code, _, _ = run_cli(["eig", "--domain", "interval:1,-1"], capsys)
    assert code == 2


def test_eig_disk_fractional_exits_2(capsys):
    code, _, _ = run_cli(
        ["eig", "--domain", "disk:0,0,1", "--alpha", "1.0"], capsys)
    assert code == 2


# ---------------- gap-check ----------------


def test_gap_check_small(tmp_path, capsys):
    out_file = tmp_path / "gap.json"
    code, _, _ = run_cli(
        ["gap-check", "--domain", "interval:-1,1", "--n", "64",
         "--eps", "1e-2", "--t-max", "10", "--x-max", "20",
         "--out", str(out_file)], capsys)
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["schema"] == 1
    assert doc["pass"] is True
    assert abs(doc["relative_error"]) < 0.05
    assert abs(doc["constant_field_Q"]) < 1e-12


def test_gap_check_budget_exceeded_exits_3(capsys):
    # a tiny integration box leaves a tail bound above 1% of the gap
    code, _, err = run_cli(
        ["gap-check", "--domain", "interval:-1,1", "--n", "32",
         "--eps", "1e-1", "--t-max", "1.5", "--x-max", "3"], capsys)
    assert code == 3
    assert "error" in err


def test_gap_check_interval_n32_regression(capsys):
    # pins the values of the analytic-gradient energy path on the benchmark case
    code, out, _ = run_cli(
        ["gap-check", "--domain", "interval:-1,1", "--alpha", "1", "--n", "32"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["Q_value"] == pytest.approx(1.5953024168454721, rel=1e-6)
    assert doc["d01_integral"] == pytest.approx(1.4884072777242714, abs=1e-6)
    assert doc["constant_field_Q"] == 0.0


def test_eig_lost_positivity_exits_3(monkeypatch, capsys):
    eigh = np.linalg.eigh

    def broken_eigh(a):
        evals, evecs = eigh(a)
        evals[0] = -1.0
        return evals, evecs

    monkeypatch.setattr(np.linalg, "eigh", broken_eigh)
    code, _, err = run_cli(["eig", "--domain", "interval:-1,1", "--n", "16"], capsys)
    assert code == 3
    assert "positivity" in err


# ---------------- mc ----------------


def test_mc_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--domain", "interval:-1,1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_mc_small_run(tmp_path, capsys):
    out_file = tmp_path / "mc.json"
    csv_file = tmp_path / "surv.csv"
    args = ["mc", "--domain", "interval:-1,1", "--paths", "20000",
            "--dt", "2e-3", "--t-max", "6", "--seed", "9",
            "--out", str(out_file), "--csv", str(csv_file)]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["schema"] == 1
    assert doc["config"]["seed"] == 9
    assert doc["estimates"]["dt"]["lambda1"]["value"] > 0
    assert "dt_half" in doc["estimates"]
    assert "z_score" in doc["galerkin"]
    first = out_file.read_bytes()
    cols = np.loadtxt(csv_file)
    assert cols.shape[1] == 3
    assert np.all(np.diff(cols[:, 1]) <= 0)  # survival monotone
    # byte-identical rerun
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    assert out_file.read_bytes() == first


# ---------------- report ----------------


def test_report_constants_only(capsys):
    code, out, _ = run_cli(["report"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert "constants" in doc


def test_report_domain(tmp_path, capsys):
    out_file = tmp_path / "rep.json"
    code, _, err = run_cli(
        ["report", "--domain", "rect:-2,2,-1,1", "--out", str(out_file)],
        capsys)
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["report"]["gap_upper"] > 0
    assert "gap_lower_rectangle" in doc["report"]["rows"]
    assert "gap_upper" in err  # human-readable table on stderr


def test_report_sweep_plot_files(tmp_path, capsys):
    prefix = str(tmp_path / "sweep")
    code, _, _ = run_cli(
        ["report", "--sweep", "1,2,4", "--plot-prefix", prefix], capsys)
    assert code == 0
    lower = np.loadtxt(prefix + "_lower.dat")
    upper = np.loadtxt(prefix + "_upper.dat")
    assert lower.shape == (3, 2)
    assert upper.shape == (3, 2)
    assert np.all(lower[:, 1] <= upper[:, 1])
    assert lower[0, 1] == pytest.approx(1 / 6, rel=1e-9)
    assert lower[1, 1] == pytest.approx(0.1, rel=1e-9)
