"""The scripts under scripts/ run on small grids and write their CSVs; each has a case here."""

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


CASES = [
    (
        "emit_profiles.py",
        ["--points", "512"],
        ["profile.csv", "residuals.csv", "fiber_scan.csv", "flow_energy.csv"],
    ),
]


def test_every_script_has_a_case():
    scripts = {path.name for path in (ROOT / "scripts").iterdir() if path.is_file()}
    assert scripts == {name for name, _, _ in CASES}


@pytest.mark.parametrize("name, args, outputs", CASES, ids=[name for name, _, _ in CASES])
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

