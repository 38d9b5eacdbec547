"""What a fresh interpreter loads and does: every test here starts its own
Python process, because a test process has QUADPACK loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fbmhaar

# the directory that holds the package under test, first on the path
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(fbmhaar.__file__).resolve().parents[1]),
    os.environ.get("PYTHONPATH")]))}

HEAVY = ("scipy.special", "scipy.integrate", "scipy.optimize",
         "scipy.sparse", "scipy.linalg")


def run_python(*args, cwd):
    return subprocess.run([sys.executable, *args], env=ENV, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


# code run in a fresh interpreter -> (scipy layers it must load, layers it
# must not load)
IMPORT_BUDGET = {
    "import": ("import fbmhaar", (), HEAVY),
    "dump-coeffs": (
        "import fbmhaar.cli; fbmhaar.cli.main(['dump-coeffs', '--hurst', "
        "'0.3', '--levels', '15', '--t', '0.5', '--out', 'c.csv'])",
        (), HEAVY),
    "generate": (
        "import fbmhaar.cli; fbmhaar.cli.main(['generate', '--hurst', '0.7', "
        "'--levels', '63', '--times', '8', '--out', 'p.csv'])",
        ("scipy.special",), HEAVY[1:]),
    "quadrature": (
        "from fbmhaar import CoefficientKind, HurstParams, quad_coefficient; "
        "quad_coefficient(CoefficientKind.F1, 0.5, HurstParams(0.3), 1)",
        ("scipy.integrate",), ()),
}


@pytest.mark.parametrize("command", IMPORT_BUDGET)
def test_each_command_loads_only_the_scipy_layer_it_runs(command, tmp_path):
    code, required, forbidden = IMPORT_BUDGET[command]
    code += "\nimport sys; print(' '.join(sys.modules))"
    proc = run_python("-c", code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert set(required) <= loaded
    assert not set(forbidden) & loaded


def test_coefficient_campaign_workers_from_a_cold_process(tmp_path):
    # the parent never integrates before its pool forks, so each worker
    # loads QUADPACK on its own first quadrature
    records = {}
    for workers in (2, 1):
        out = tmp_path / f"workers{workers}.json"
        proc = run_python(
            "-m", "fbmhaar.cli", "validate-coeffs", "--hurst", "0.3",
            "--levels", "15", "--workers", str(workers),
            "--format", "report-structured", "--out", str(out), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        report.pop("elapsed_seconds")
        records[workers] = report
    assert records[2] == records[1]
    assert records[1]["passed"] is True
