"""Command-line interface: subcommands, exit codes, reproducible outputs."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stablegap
from stablegap.cli import main, parse_domain


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------- domain shorthand ----------------


def test_parse_domain_shorthand():
    from stablegap import Domain

    assert parse_domain("interval:-1,1") == Domain.interval(-1.0, 1.0)
    assert parse_domain("rect:-2,2,-1,1") == Domain.rectangle(-2.0, 2.0, -1.0, 1.0)
    assert parse_domain("disk:0,0,1").kind == "disk"
    u = parse_domain("intervals:-2,-0.5,0.5,2")
    assert u.dim == 1 and len(u.axis_components()[0]) == 2
    # the JSON echo keeps the kind names of each shape
    for text, kind in (("interval:-1,1", "interval_union"), ("rect:-2,2,-1,1", "rectangle"),
                       ("intervals:-2,-0.5,0.5,2", "interval_union")):
        assert parse_domain(text).to_json()["kind"] == kind


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


def test_eig_solve_time_goes_to_stderr_only(capsys):
    code, out, err = run_cli(["eig", "--domain", "interval:-1,1", "--n", "16"], capsys)
    assert code == 0
    assert re.fullmatch(r"eig: solve \d+\.\d{3} s\n", err)
    assert "solve" not in out


def test_gap_check_rerun_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for f in (a, b):
        code, _, err = run_cli(
            ["gap-check", "--domain", "interval:-1,1", "--n", "16", "--out", str(f)], capsys)
        assert code == 0
        # stage wall times and the engine's worker count go to stderr only
        workers = stablegap.steklov.engine_workers(1)
        assert re.fullmatch(r"gap-check: solve \d+\.\d{3} s, gap identity \d+\.\d{3} s, "
                            rf"d01 \d+\.\d{{3}} s; extension engine workers {workers}; "
                            r"Faddeeva entries [1-9]\d* evaluated, \d+ skipped\n", err)
    assert a.read_bytes() == b.read_bytes()
    assert "workers" not in a.read_text()


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


@pytest.mark.parametrize("domain, x_max", [("interval:-1,1", "1"),
                                           ("rect:-2,2,-1,1", "1.5")])
def test_gap_check_box_inside_domain_exits_before_solving(domain, x_max, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_spectrum ran")

    monkeypatch.setattr(stablegap.cli, "solve_spectrum", no_solve)
    code, out, err = run_cli(["gap-check", "--domain", domain, "--n", "8", "--x-max", x_max],
                             capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "half-extent" in err


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


def test_gap_check_rect_n8_regression(capsys):
    # pins the values of the 2D energy path on the rect_gap benchmark case
    code, out, _ = run_cli(
        ["gap-check", "--domain", "rect:-2,2,-1,1", "--alpha", "1", "--n", "8"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["Q_value"] == pytest.approx(0.5435838264794381, rel=1e-11)
    assert doc["d01_integral"] == pytest.approx(0.47158882430821225, rel=1e-11)


def test_gap_check_interval_n32_engine_digits(capsys):
    # pins the interval_gap benchmark case to the digits the extension
    # engine must keep when it skips weightless subordination chunks
    code, out, _ = run_cli(
        ["gap-check", "--domain", "interval:-1,1", "--alpha", "1", "--n", "32"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["Q_value"] == pytest.approx(1.5953024222919119, rel=1e-13)
    assert doc["d01_integral"] == pytest.approx(1.488407397068144, rel=1e-13)


@pytest.mark.parametrize("flags, truncation", [
    (["--t-max", "10"], [0.001, 10.0, 60.0]),
    (["--eps", "1e-2"], [0.01, 30.0, 60.0]),
], ids=["t-max", "eps"])
def test_gap_check_flag_replaces_one_truncation_field(flags, truncation, capsys):
    code, out, _ = run_cli(
        ["gap-check", "--domain", "interval:-1,1", "--n", "32"] + flags, capsys)
    assert code == 0
    assert json.loads(out)["config"]["truncation"] == truncation


def test_gap_check_invalid_truncation_exits_2(capsys):
    code, out, err = run_cli(
        ["gap-check", "--domain", "interval:-1,1", "--n", "32",
         "--eps", "20", "--t-max", "10"], capsys)
    assert code == 2
    assert out == "" and "error" in err


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


def test_oversized_basis_exits_3(monkeypatch, capsys):
    # what numpy raises when the form matrix of a large rectangle basis cannot
    # be allocated; the real allocation is never attempted here
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 11.9 GiB for an array with shape (40000, 40000)")

    monkeypatch.setattr(stablegap.cli, "solve_spectrum", no_memory)
    code, out, err = run_cli(["eig", "--domain", "rect:-1,1,-1,1", "--n", "200"], capsys)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: out of memory: Unable to allocate")


@pytest.mark.parametrize("argv", [
    ["eig", "--domain", "interval:-1,1", "--n", "16"],
    ["gap-check", "--domain", "interval:-1,1", "--n", "16"],
    ["mc", "--domain", "interval:-1,1", "--paths", "100", "--seed", "1"],
    ["report", "--domain", "interval:-1,1"],
    ["report", "--sweep", "1,2", "--plot-prefix", "{prefix}"],
], ids=["eig", "gap-check", "mc", "report-domain", "report-sweep"])
def test_alpha_out_of_range_exits_2(argv, tmp_path, capsys):
    prefix = tmp_path / "sweep"
    argv = [a.format(prefix=prefix) for a in argv]
    code, out, err = run_cli(argv + ["--alpha", "7"], capsys)
    assert code == 2
    assert out == "" and "alpha" in err
    assert list(tmp_path.iterdir()) == []  # no plot files from a failed run


def _run_python(args, cwd, **env):
    # a separate process, with the checkout's source tree on the path and
    # env added to its environment
    src = str(Path(stablegap.__file__).parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def _run_module(module, argv, cwd, **env):
    return _run_python(["-m", module, *argv], cwd, **env)


_NUMPY_ONLY = r"""
import contextlib, io, json, sys
import stablegap.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
seen = [["import", 0, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = stablegap.cli.main(argv)
    seen.append([argv[0] + " " + argv[2], code, scipy_modules()])
print(json.dumps(seen))
"""


def test_1d_eig_and_mc_load_numpy_alone(tmp_path):
    # scipy loads inside the functions that call it, and these never do
    runs = [
        ["eig", "--domain", "interval:-1,1", "--n", "16"],
        ["eig", "--domain", "intervals:-2,-0.5,0.5,2", "--n", "16"],
        ["mc", "--domain", "interval:-1,1", "--paths", "2000", "--dt", "1e-2", "--t-max", "3",
         "--start", "0.5", "--seed", "1"],
    ]
    out = _run_python(["-c", _NUMPY_ONLY, json.dumps(runs)], tmp_path)
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout)
    assert [step for step, _, _ in seen] == [
        "import", "eig interval:-1,1", "eig intervals:-2,-0.5,0.5,2", "mc interval:-1,1"]
    assert all(code == 0 and modules == [] for _, code, modules in seen), seen


_LOADED = r"""
import contextlib, io, json, sys
import stablegap
argv = json.loads(sys.argv[1])
if argv:
    from stablegap import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
else:  # the set-up probe of perfbench/worker.py
    from stablegap import kernels
    kernels.subordination_grid()
    code = 0
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "stablegap")]))
"""


def _loaded(argv, cwd):
    """(exit code, stablegap modules loaded) of one entry point in a fresh process."""
    out = _run_python(["-c", _LOADED, json.dumps(argv)], cwd)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_probe_loads_four_modules(tmp_path):
    assert _loaded([], tmp_path) == [0, ["stablegap", "stablegap._quad", "stablegap.errors",
                                         "stablegap.kernels"]]


@pytest.mark.parametrize("argv, used, unused", [
    (["eig", "--domain", "interval:-1,1", "--n", "16"],
     "eigensolver", ("steklov", "montecarlo", "bounds", "poincare")),
    (["mc", "--domain", "interval:-1,1", "--paths", "2000", "--dt", "1e-2", "--t-max", "3",
      "--start", "0.5", "--seed", "1"],
     "montecarlo", ("steklov", "bounds", "poincare")),
    (["gap-check", "--domain", "interval:-1,1", "--n", "8"],
     "steklov", ("montecarlo", "bounds", "poincare")),
], ids=["eig", "mc", "gap-check"])
def test_subcommand_skips_the_modules_it_never_runs(argv, used, unused, tmp_path):
    code, modules = _loaded(argv, tmp_path)
    assert code == 0
    assert f"stablegap.{used}" in modules
    assert not {f"stablegap.{m}" for m in unused} & set(modules), modules


@pytest.mark.parametrize("argv", [
    ["eig", "--domain", "interval:-1,1", "--n", "0"],
    ["eig", "--domain", "rect:-2,2,-1,1", "--n", "0"],
    ["eig", "--domain", "interval:-1,1", "--n", "8", "--csv-mode", "20", "--csv", "f"],
    ["report", "--sweep", "a,b", "--plot-prefix", "p"],
    ["report", "--sweep", "1,2"],
    ["report", "--sweep", "a,b"],
    ["report", "--plot-prefix", "p"],
    ["report", "--domain", "interval:-1,1", "--sweep", "1,nan", "--plot-prefix", "p"],
    ["mc", "--domain", "interval:-1,1", "--seed", "1", "--start", "a"],
    ["gap-check", "--domain", "interval:-1,1", "--n", "16", "--mode", "0"],
    ["gap-check", "--domain", "interval:-1,1", "--n", "16", "--mode", "1"],
    ["gap-check", "--domain", "interval:-1,1", "--n", "16", "--mode", "-1"],
    ["gap-check", "--domain", "interval:-1,1", "--n", "16", "--mode", "17"],
    ["eig", "--domain", "interval:-1,1", "--n", "1"],
    ["eig", "--domain", "interval:-1,1", "--n", "16", "--n-report", "1"],
    ["eig", "--domain", "interval:-1,1", "--n", "16", "--n-report", "0"],
    ["eig", "--domain", "rect:-2,2,-1,1", "--n", "1"],
    ["report", "--domain", "interval:-1,1", "--n", "1"],
    ["report", "--domain", "interval:-1,1", "--n", "0"],
    ["report", "--domain", "interval:-1,1", "--n", "-3"],
    ["report", "--alpha", "nan"],
    ["report", "--alpha", "3"],
    ["report", "--n", "0"],
    ["report", "--domain", "rect:0,inf,-1,1"],
    ["eig", "--domain", "rect:0,inf,-1,1", "--n", "4"],
    ["eig", "--domain", "disk:nan,0,1", "--alpha", "2", "--n", "4"],
    ["eig", "--domain", "disk:0,0,inf", "--alpha", "2", "--n", "4"],
    ["gap-check", "--domain", "interval:-1,1", "--alpha", "1", "--n", "8", "--t-max", "inf"],
    ["gap-check", "--domain", "interval:-1,1", "--alpha", "1", "--n", "8", "--x-max", "inf"],
    ["gap-check", "--domain", "interval:-1,1", "--alpha", "1", "--n", "8", "--x-max", "1"],
    ["mc", "--domain", "interval:-1,1", "--seed", "1", "--t-max", "inf"],
    ["eig", "--domain", "{bad", "--n", "4"],
    ["eig", "--domain", '{"kind":"rectangle","params":{}}', "--n", "4"],
    ["eig", "--domain", '{"kind":"disk","params":{"center":[0],"radius":1}}', "--n", "4"],
    ["eig", "--domain", '{"kind":"interval_union","params":{"intervals":[[0,"x"]]}}',
     "--n", "4"],
    ["mc", "--domain", "interval:-1,1", "--seed", "-1", "--paths", "100"],
], ids=["interval-n0", "rect-n0", "csv-mode", "report-sweep",
        "report-sweep-no-prefix", "report-bad-sweep-no-prefix", "report-prefix-no-sweep",
        "report-sweep-nan", "mc-start",
        "gap-check-mode0", "gap-check-mode1", "gap-check-mode-1", "gap-check-mode17",
        "interval-n1", "n-report1", "n-report0", "rect-n1", "report-n1",
        "report-n0", "report-n-3", "report-alpha-nan", "report-alpha-3", "report-no-domain-n0",
        "report-rect-inf", "rect-inf", "disk-nan-centre", "disk-inf-radius",
        "gap-check-t-max-inf", "gap-check-x-max-inf", "gap-check-x-max-in-domain",
        "mc-t-max-inf",
        "json-syntax", "json-rect-no-sides", "json-disk-short-centre", "json-union-text-end",
        "mc-seed-negative"])
def test_bad_counts_and_numbers_exit_2(argv, tmp_path):
    # a separate process, so that an uncaught exception shows as its traceback
    proc = _run_module("stablegap.cli", argv, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []  # no JSON, CSV or plot files


def test_python_m_stablegap_runs_the_cli(tmp_path):
    proc = _run_module("stablegap", ["eig", "--domain", "interval:-1,1", "--n", "8"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["eigenvalues"][0] > 0
    proc = _run_module("stablegap", ["eig", "--domain", "interval:-1,1", "--n", "0"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_gap_check_interval_stdout_ignores_blas_threads(tmp_path):
    # the 1D time contractions are products that OpenBLAS runs on one
    # thread, whatever the thread count: the output must not depend on it
    argv = ["gap-check", "--domain", "interval:-1,1", "--n", "32"]
    outs = []
    for threads in ("1", "2"):
        proc = _run_module("stablegap", argv, tmp_path, OPENBLAS_NUM_THREADS=threads,
                           OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


# ---------------- mc ----------------


@pytest.mark.parametrize("argv, flag", [
    (["eig", "--domain", "interval:-1,1", "--n", "8"], "--out"),
    (["eig", "--domain", "interval:-1,1", "--n", "8"], "--csv"),
    (["gap-check", "--domain", "interval:-1,1", "--n", "8"], "--out"),
    (["mc", "--domain", "interval:-1,1", "--paths", "100", "--seed", "1"], "--csv"),
    (["report", "--domain", "interval:-1,1", "--n", "8", "--sweep", "1,2"], "--plot-prefix"),
], ids=["eig-out", "eig-csv", "gap-check-out", "mc-csv", "report-plot-prefix"])
def test_missing_output_dir_exits_2(argv, flag, monkeypatch, capsys, tmp_path):
    # an output path in a directory that does not exist is refused before any
    # solve or simulation, with no traceback and nothing on stdout
    def no_run(*args, **kwargs):
        raise AssertionError("a solve or simulation ran")

    monkeypatch.setattr(stablegap.cli, "solve_spectrum", no_run)
    monkeypatch.setattr(stablegap.montecarlo, "survival_curve", no_run)
    missing = tmp_path / "missing" / "f"
    code, out, err = run_cli(argv + [flag, str(missing)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(missing.parent) in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_failed_write_exits_2(capsys, tmp_path):
    # a write that fails after the run (here onto a directory) exits 2 and
    # leaves no temporary file behind
    target = tmp_path / "taken"
    target.mkdir()
    code, out, err = run_cli(["report", "--out", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write ") and str(target) in err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list(target.iterdir()) == []


def test_mc_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--domain", "interval:-1,1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_mc_rejected_configuration_exits_before_simulating(monkeypatch, capsys):
    # the Galerkin cross-check rejects a disk at alpha = 1 before any path runs
    def no_simulation(*args, **kwargs):
        raise AssertionError("survival_curve ran")

    monkeypatch.setattr(stablegap.montecarlo, "survival_curve", no_simulation)
    code, out, err = run_cli(["mc", "--domain", "disk:0,0,1", "--alpha", "1",
                              "--paths", "100", "--seed", "1", "--start", "0.5,0"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "alpha = 2" in err


@pytest.mark.parametrize("sweep", ["2,0.5", "2,inf", "-1"])
def test_report_sweep_checked_before_solving(sweep, monkeypatch, capsys, tmp_path):
    # every half-length is checked before the first sweep solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_spectrum ran")

    monkeypatch.setattr(stablegap.cli, "solve_spectrum", no_solve)
    code, out, err = run_cli(["report", "--sweep", sweep, "--n", "8",
                              "--plot-prefix", str(tmp_path / "p")], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--sweep" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, flag", [
    (["eig", "--csv-mode", "9"], "--csv-mode"),
    (["eig", "--csv-mode", "0"], "--csv-mode"),
    (["eig", "--n-report", "3", "--csv-mode", "4"], "--csv-mode"),
    (["gap-check", "--mode", "1"], "--mode"),
    (["gap-check", "--mode", "-1"], "--mode"),
    (["eig", "--n-report", "1"], "--n-report"),
    (["eig", "--n", "1"], "--n 1"),
    (["report", "--n", "1"], "--n 1"),
    (["gap-check", "--n", "16", "--mode", "100"], "--mode"),
    # a union has two modes at --n 1, but no sweep rectangle has an antisymmetric one
    (["report", "--domain", "intervals:-2,-0.5,0.5,2", "--n", "1", "--sweep", "1,2",
      "--plot-prefix", "p"], "--n 1"),
], ids=["csv-mode-above-n-report", "csv-mode0", "csv-mode-above-n-report3",
        "gap-check-mode1", "gap-check-mode-1", "eig-n-report1", "eig-n1", "report-n1",
        "gap-check-mode-above-basis", "report-sweep-n1"])
def test_mode_flags_checked_before_solving(argv, flag, monkeypatch, capsys, tmp_path):
    # a mode number that cannot be reported is refused before the solve it would waste
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_spectrum ran")

    monkeypatch.setattr(stablegap.cli, "solve_spectrum", no_solve)
    csv = ["--csv", str(tmp_path / "f")] if argv[0] == "eig" else []
    code, out, err = run_cli(argv[:1] + ["--domain", "interval:-1,1", "--n", "512"] + argv[1:] + csv,
                             capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and flag in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("domain, n, n_report, mode", [
    ("interval:-1,1", "4", "8", "6"),
    ("intervals:-2,-0.5,0.5,2", "2", "8", "5"),
    ("rect:-2,2,-1,1", "2", "8", "5"),
    ("disk:0,0,1", "3", "8", "4"),
], ids=["interval", "union", "rect", "disk"])
def test_csv_mode_checked_against_basis_size_before_solving(domain, n, n_report, mode,
                                                            monkeypatch, capsys, tmp_path):
    # a mode within --n-report but beyond the basis is refused before the solve:
    # the basis has n modes per interval component, n**2 on a rectangle
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_spectrum ran")

    monkeypatch.setattr(stablegap.cli, "solve_spectrum", no_solve)
    alpha = ["--alpha", "2"] if domain.startswith("disk") else []
    code, out, err = run_cli(["eig", "--domain", domain, "--n", n, "--n-report", n_report,
                              "--csv-mode", mode, "--csv", str(tmp_path / "f"), *alpha], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--csv-mode" in err and "basis size" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "extra, message",
    [(["--start", "5"], "lie in D"), (["--paths", "0"], "paths"),
     (["--dt", "4", "--t-max", "3"], "dt < t_max"),
     (["--dt", "1e-3", "--t-max", "0.005"], "record stride")],
    ids=["start-outside", "no-paths", "dt-too-large", "shorter-than-a-stride"],
)
def test_mc_invalid_configuration_exits_before_solving(extra, message, monkeypatch, capsys):
    # dt and dt/2 are both validated, and the start point checked, before the
    # Galerkin solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_spectrum ran")

    monkeypatch.setattr(stablegap.cli, "solve_spectrum", no_solve)
    code, out, err = run_cli(["mc", "--domain", "interval:-1,1", "--paths", "100",
                              "--seed", "1", *extra], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_mc_small_run(tmp_path, capsys):
    out_file = tmp_path / "mc.json"
    csv_file = tmp_path / "surv.csv"
    args = ["mc", "--domain", "interval:-1,1", "--paths", "20000",
            "--dt", "2e-3", "--t-max", "6", "--seed", "9",
            "--out", str(out_file), "--csv", str(csv_file)]
    code, _, err = run_cli(args, capsys)
    assert code == 0
    # stage wall times go to stderr only
    assert re.fullmatch(r"mc: galerkin solve \d+\.\d{3} s, survival dt \d+\.\d{3} s, "
                        r"survival dt_half \d+\.\d{3} s\n", err)
    doc = json.loads(out_file.read_text())
    assert doc["schema"] == 1
    assert doc["config"]["seed"] == 9
    # the stream layout that produced the tallies is named beside the stride
    assert doc["config"]["streams"] == 2
    assert doc["config"]["bit_generator"] == "SFC64"
    assert doc["config"]["record_stride"] == 10
    # and the chunk size the steps are drawn in, on which the tallies depend
    assert doc["config"]["draw_entries"] == stablegap.montecarlo.DRAW_ENTRIES == 1 << 17
    assert doc["estimates"]["dt"]["lambda1"]["value"] > 0
    assert "dt_half" in doc["estimates"]
    assert "z_score" in doc["galerkin"]
    lam = {k: doc["estimates"][k]["lambda1"] for k in ("dt", "dt_half")}
    assert doc["dt_refinement"] == {
        "lambda1_delta": lam["dt_half"]["value"] - lam["dt"]["value"],
        "stderr": float(np.hypot(lam["dt_half"]["stderr"], lam["dt"]["stderr"])),
    }
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


def test_report_sweep_reuses_the_main_solve(tmp_path, capsys, monkeypatch):
    # the sweep's L = 2 rectangle is --domain at the same n and alpha: solved once
    solve, calls = stablegap.cli.solve_spectrum, []

    def counting_solve(domain, *args, **kwargs):
        calls.append(domain)
        return solve(domain, *args, **kwargs)

    monkeypatch.setattr(stablegap.cli, "solve_spectrum", counting_solve)
    rows = []
    for name, domain in (("main", ["--domain", "rect:-2,2,-1,1"]), ("alone", [])):
        calls.clear()
        prefix = str(tmp_path / name)
        code, _, _ = run_cli(["report", *domain, "--n", "16", "--sweep", "1,2,4",
                              "--plot-prefix", prefix], capsys)
        assert code == 0
        assert len(calls) == 3
        rows.append(Path(prefix + "_computed.dat").read_bytes())
    assert rows[0] == rows[1]


def test_report_stage_times_go_to_stderr_only(tmp_path, capsys):
    runs = []
    for name in ("a", "b"):
        prefix = str(tmp_path / name)
        code, out, err = run_cli(
            ["report", "--domain", "interval:-1,1", "--n", "16", "--sweep", "1,2",
             "--plot-prefix", prefix], capsys)
        assert code == 0
        assert re.search(r"^report: solve \d+\.\d{3} s, sweep \d+\.\d{3} s\n\Z", err, re.M)
        runs.append((out, [Path(prefix + s).read_bytes() for s in ("_lower.dat", "_computed.dat")]))
    assert runs[0] == runs[1]  # the JSON and the plot files are byte-identical
    assert "solve" not in runs[0][0]
    # only the stages that ran are timed; a constants-only report runs none
    _, _, err = run_cli(["report", "--domain", "interval:-1,1"], capsys)
    assert "report: " not in err
    _, _, err = run_cli(["report", "--sweep", "1", "--plot-prefix", str(tmp_path / "c")], capsys)
    assert re.search(r"^report: sweep \d+\.\d{3} s\n\Z", err, re.M)
    _, _, err = run_cli(["report"], capsys)
    assert err == ""
