"""The scripts under ``scripts/`` run end to end on small knobs, so an API
they import cannot be removed without a failing test."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_rank1_parameter_sweep_runs(tmp_path):
    done = run_script("rank1_parameter_sweep.py", "--depth", "6", "--stage", "2",
                      "--N", "64", "--parameters", "1/4", "1/3", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()[1:]
    assert [row.split()[:2] for row in rows] == [["1/4", "isomorphic-family"],
                                                 ["1/3", "disjoint-family"]]


def test_run_all_experiments_writes_three_reports_each(tmp_path):
    names = ["spectral-probe", "identity-disjoint"]
    done = run_script("run_all_experiments.py", "--experiments", *names,
                      "--out", str(tmp_path / "runs"), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    for name in names:
        for suffix in ("json", "csv", "md"):
            assert (tmp_path / "runs" / name / f"report-{name}.{suffix}").stat().st_size > 0
