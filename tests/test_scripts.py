"""The scripts under scripts/ run on small grids and write their CSVs."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, args, out_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args, "--out-dir", str(out_dir)],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "name, args, outputs",
    [
        ("exponent_study.py", ["--count", "2", "--points", "512"], ["exponents_N1.csv"]),
        (
            "emit_profiles.py",
            ["--points", "512"],
            ["profile.csv", "residuals.csv", "fiber_scan.csv", "flow_energy.csv"],
        ),
    ],
)
def test_script_writes_csvs(name, args, outputs, tmp_path):
    done = run_script(name, args, tmp_path)
    assert done.returncode == 0, done.stderr
    for output in outputs:
        with (tmp_path / output).open() as handle:
            rows = list(csv.reader(handle))
        assert len(rows) >= 2, output  # a header and at least one row
    if "residuals.csv" in outputs:
        # the mixed fixed-frequency solve behind it descends to the tolerance
        with (tmp_path / "residuals.csv").open() as handle:
            residuals = [float(row["residual"]) for row in csv.DictReader(handle)]
        assert residuals[-1] <= 1e-10 < residuals[0]
        assert residuals[-1] == min(residuals)
