import io
import json
import subprocess
import sys

import numpy as np
import pytest

from fbmhaar import coeff_matrix, draw_bundle, load_bundle
from fbmhaar.coefficients import CoefficientKind, HurstParams
from fbmhaar.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_generate_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["generate", "--hurst", "0.5", "--levels", "255", "--seed", "42",
            "--times", "16"]
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_generate_workers_do_not_change_bytes(tmp_path):
    outs = []
    for workers in ("1", "4", "8"):
        out = tmp_path / f"w{workers}.csv"
        assert run_cli("generate", "--hurst", "0.3", "--levels", "127",
                       "--seed", "7", "--times", "32", "--workers", workers,
                       "--out", str(out)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_generate_csv_shape(tmp_path):
    out = tmp_path / "p.csv"
    assert run_cli("generate", "--hurst", "0.5", "--levels", "63",
                   "--seed", "1", "--times", "4", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any("seed: 1" in l for l in meta)
    assert "t,value" in lines
    rows = [l for l in lines if l and not l.startswith("#") and "," in l
            and not l.startswith("t,")]
    assert len(rows) == 5
    assert rows[0].split(",") == ["0", "0"]


def test_generate_single_explicit_time(tmp_path):
    times_file = tmp_path / "times.txt"
    times_file.write_text("0\n")
    out = tmp_path / "p.csv"
    assert run_cli("generate", "--hurst", "0.5", "--levels", "1023",
                   "--seed", "42", "--times-file", str(times_file),
                   "--out", str(out)) == 0
    rows = [l for l in out.read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("t,")]
    assert rows == ["0,0"]


def test_generate_dyadic_spacing(tmp_path):
    out = tmp_path / "p.csv"
    assert run_cli("generate", "--hurst", "0.5", "--levels", "15",
                   "--times", "2", "--spacing", "dyadic",
                   "--out", str(out)) == 0
    rows = [l for l in out.read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("t,")]
    assert [r.split(",")[0] for r in rows] == ["0", "0.25", "0.5", "0.75", "1"]


def test_usage_error_exit_2_for_non_finite_times_file(tmp_path, capsys):
    times_file = tmp_path / "times.txt"
    times_file.write_text("0.5\nnan\n")
    with pytest.raises(SystemExit) as err:
        run_cli("generate", "--hurst", "0.3", "--levels", "15",
                "--times-file", str(times_file),
                "--out", str(tmp_path / "p.csv"))
    assert err.value.code == 2
    assert "times must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("times, message", [
    (("--times", "0"), "--times must be positive"),
    (("--times", "21", "--spacing", "dyadic"),
     "dyadic depth must lie in 1..20"),
])
def test_usage_error_exit_2_for_bad_time_count(times, message, tmp_path,
                                               capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("generate", "--hurst", "0.3", "--levels", "15", *times,
                "--out", str(tmp_path / "p.csv"))
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_unreadable_times_file_exit_1(tmp_path, capsys):
    code = run_cli("generate", "--hurst", "0.3", "--levels", "15",
                   "--times-file", str(tmp_path / "missing.txt"),
                   "--out", str(tmp_path / "p.csv"))
    assert code == 1
    assert "cannot read times file" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_usage_error_exit_2_for_bad_hurst(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli("generate", "--hurst", "1.0", "--levels", "63",
                "--out", str(tmp_path / "x.csv"))
    assert err.value.code == 2


def test_usage_error_exit_2_for_bad_levels(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli("generate", "--hurst", "0.5", "--levels", "1",
                "--out", str(tmp_path / "x.csv"))
    assert err.value.code == 2


def test_usage_error_exit_2_for_negative_workers(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("validate-coeffs", "--hurst", "0.3", "--levels", "3",
                "--workers", "-1", "--out", str(tmp_path / "r.txt"))
    assert err.value.code == 2
    assert "workers must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("command, levels, message", [
    ("validate-coeffs", "-1", "n_max must be nonnegative, got -1"),
    ("validate-covariance", "0", "n_terms must be at least 1, got 0"),
    ("validate-brownian", "0", "n_terms must be at least 1, got 0"),
])
def test_usage_error_exit_2_for_bad_campaign_levels(command, levels, message,
                                                    tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(command, "--levels", levels, "--out", str(tmp_path / "r.txt"))
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("command", [
    ("generate", "--hurst", "0.3", "--times", "4"),
    ("dump-coeffs", "--hurst", "0.3", "--t", "0.5"),
    ("validate-coeffs", "--hurst", "0.3", "--workers", "1"),
])
def test_usage_error_exit_2_for_levels_past_the_cap(command, tmp_path, capsys):
    # 2**41 is the first index of level 41; the check must come before
    # terabytes of coefficients or noise are allocated
    with pytest.raises(SystemExit) as err:
        run_cli(*command, "--levels", str(2**41),
                "--out", str(tmp_path / "out.txt"))
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "level 41 exceeds supported maximum 40" in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "out.txt").exists()


def test_usage_error_exit_2_for_bad_dump_time(capsys):
    for t, message in (("nan", "--t: times must be finite"),
                       ("1.5", "--t: times must lie in [0, 1], got 1.5")):
        with pytest.raises(SystemExit) as err:
            run_cli("dump-coeffs", "--hurst", "0.3", "--levels", "7",
                    "--t", t)
        assert err.value.code == 2
        assert message in capsys.readouterr().err


def test_workers_only_on_commands_that_start_workers(capsys):
    # the covariance and Brownian ensembles fit one block of instants, so
    # a worker count would never start a thread there
    for command in ("validate-covariance", "validate-brownian"):
        with pytest.raises(SystemExit) as err:
            run_cli(command, "--workers", "2")
        assert err.value.code == 2
        assert "--workers" in capsys.readouterr().err


def test_brownian_campaign_takes_no_hurst(capsys):
    # the Brownian campaign runs at H = 1/2 by definition
    with pytest.raises(SystemExit) as err:
        run_cli("validate-brownian", "--hurst", "0.3")
    assert err.value.code == 2
    assert "--hurst" in capsys.readouterr().err


def test_io_error_exit_1():
    code = run_cli("generate", "--hurst", "0.5", "--levels", "63",
                   "--times", "2", "--out", "/nonexistent-dir/x.csv")
    assert code == 1


def test_binary_bundle_output(tmp_path):
    out = tmp_path / "noise.bin"
    assert run_cli("generate", "--hurst", "0.5", "--levels", "31",
                   "--seed", "9", "--format", "binary-bundle",
                   "--out", str(out)) == 0
    with open(out, "rb") as fh:
        bundle = load_bundle(fh)
    assert bundle.seed == 9 and bundle.n_terms == 31


def test_binary_bundle_to_stdout(tmp_path, monkeypatch, capsysbinary):
    # "--out -" is stdout here as everywhere else, and a bundle reads no
    # instants, so a times file that does not exist is never opened
    monkeypatch.chdir(tmp_path)
    assert run_cli("generate", "--hurst", "0.5", "--levels", "31",
                   "--seed", "9", "--format", "binary-bundle",
                   "--times-file", "nope.txt", "--out", "-") == 0
    bundle = load_bundle(io.BytesIO(capsysbinary.readouterr().out))
    expected = draw_bundle(9, 31)
    assert (bundle.seed, bundle.n_terms) == (9, 31)
    for got, want in zip((bundle.l1, bundle.l2, bundle.l3),
                         (expected.l1, expected.l2, expected.l3)):
        assert np.array_equal(got, want)
    assert bundle.lstar == expected.lstar
    assert list(tmp_path.iterdir()) == []


def test_dump_coeffs_matches_library(tmp_path):
    out = tmp_path / "c.csv"
    assert run_cli("dump-coeffs", "--hurst", "0.75", "--levels", "7",
                   "--t", "0.6", "--out", str(out)) == 0
    lines = [l for l in out.read_text().splitlines()
             if l and not l.startswith("#")]
    assert lines[0] == "n,j,k,f1,f2,g"
    p = HurstParams.from_hurst(0.75)
    t = np.array([0.6])
    f1 = coeff_matrix(CoefficientKind.F1, t, p, 0, 7)[0]
    g = coeff_matrix(CoefficientKind.G, t, p, 0, 7)[0]
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 8
    assert rows[0][1] == "-1" and rows[0][2] == "-1"  # scaling sentinel
    assert rows[5][1] == "2" and rows[5][2] == "1"
    for n, row in enumerate(rows):
        assert float(row[3]) == f1[n]
        assert float(row[5]) == g[n]


def test_dump_coeffs_constant_kernel(tmp_path):
    out = tmp_path / "c.csv"
    assert run_cli("dump-coeffs", "--hurst", "0.5", "--levels", "7",
                   "--t", "1.0", "--out", str(out)) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("n,")]
    f1_col = [float(r[3]) for r in rows]
    assert f1_col == [1.0] + [0.0] * 7
    # f2 and g columns are exactly zero at H = 1/2
    assert all(float(r[4]) == 0.0 and float(r[5]) == 0.0 for r in rows)


def test_validate_coeffs_quick_pass(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli("validate-coeffs", "--hurst", "0.75", "--levels", "31",
                   "--format", "report-structured", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert data["campaign"] == "coefficient-oracle"


def test_validate_covariance_guard_exit_3(tmp_path, capsys):
    code = run_cli("validate-covariance", "--hurst", "0.5", "--paths", "10",
                   "--levels", "63", "--out", str(tmp_path / "r.txt"))
    assert code == 3
    captured = capsys.readouterr()
    assert "band too wide" in captured.err


def test_report_text_to_stdout(capsys):
    code = run_cli("validate-parseval", "--hurst", "0.75")
    out = capsys.readouterr().out
    assert code == 0
    assert "campaign: parseval-tail" in out
    assert "overall: PASS" in out


def test_validate_rate_single_hurst(tmp_path):
    out = tmp_path / "rate.json"
    code = run_cli("validate-rate", "--hurst", "0.5", "--seeds", "8",
                   "--format", "report-structured", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["campaign"] == "convergence-rate"
    (slope_record,) = [r for r in data["records"]
                       if r["name"] == "rate-slope/H=0.5"]
    assert abs(slope_record["observed"] - (-0.5)) <= 0.2


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fbmhaar.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout
