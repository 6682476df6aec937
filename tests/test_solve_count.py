"""Each pipeline runs exactly one quotient optimizer solve.

The constants chain and the critical-mass state are exact rescalings of that
one converged state, so a second solve would only repeat the first.  The
count is taken on the optimizer's joint (field, omega) loop itself
(``_weinstein_state``), so it sees every caller.
"""

import pytest

import bnls.solvers
from bnls.cli import main
from bnls.functionals import Params
from bnls.grid import BoxGrid
from bnls.solvers import SolverConfig, route_Q
from bnls.verify import full_verification

PARAMS = Params(bigN=1, p=8.0, eps=1.0)
GRID = BoxGrid(1, 512, 40.0)
CONFIG = SolverConfig(tol_residual=1e-9)
FAST = ["--N", "1", "--p", "8", "--eps", "1", "--points", "512", "--box", "40", "--tol", "1e-9"]


@pytest.fixture
def solves(monkeypatch):
    calls = []
    original = bnls.solvers._weinstein_state

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(bnls.solvers, "_weinstein_state", counted)
    return calls


def test_fresh_verification(solves):
    report, _ = full_verification(PARAMS, GRID, CONFIG, n_samples=20, with_k_numeric=True)
    assert report.passed
    assert len(solves) == 1


def test_verification_of_supplied_energy_state(solves):
    stored = route_Q(PARAMS, GRID, CONFIG)
    solves.clear()
    # the supplied state is still checked against constants of a fresh solve
    report, states = full_verification(
        PARAMS, GRID, CONFIG, n_samples=20, with_k_numeric=False, energy_state=stored
    )
    assert report.passed
    assert states["energy"] is stored
    assert len(solves) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--k-numeric"],
        ["sweep", "--p-grid", "8"],
        ["action-gss"],
    ],
    ids=["constants-k-numeric", "sweep-row", "action-gss-without-omega"],
)
def test_cli_pipelines(solves, argv, tmp_path, capsys):
    assert main(argv + FAST + ["--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(solves) == 1
