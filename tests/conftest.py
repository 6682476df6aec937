import numpy as np
import pytest
from hypothesis import settings

from bnls.constants import compute_constants
from bnls.functionals import Params
from bnls.grid import BoxGrid, NormTuple
from bnls.solvers import SolverConfig, petviashvili, route_Q

# the whole suite is reproducible, property tests included
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def params():
    return Params(bigN=1, p=8.0, eps=1.0)


@pytest.fixture(scope="session")
def grid():
    return BoxGrid(dim=1, points_per_axis=1024, box_length=40.0)


@pytest.fixture(scope="session")
def config():
    return SolverConfig()


@pytest.fixture(scope="session")
def constants_report(q_state):
    return compute_constants(q_state)


@pytest.fixture(scope="session")
def q_state(params, grid, config):
    return route_Q(params, grid, config)


@pytest.fixture(scope="session")
def action_state(params, grid, config, constants_report):
    return petviashvili(params.with_omega(constants_report.omega_eps), grid, config)


@pytest.fixture
def lp_vanishes_on_third_sweep(monkeypatch):
    """Every spectral iterate reports lp = 0 from the third call of its nonlinearity on."""
    import bnls.solvers

    original = bnls.solvers._SpectralIterate.nonlinearity
    calls = []

    def vanishing(self, p):
        calls.append(p)
        lp, nl_spec = original(self, p)
        return (0.0 if len(calls) >= 3 else lp), nl_spec

    monkeypatch.setattr(bnls.solvers._SpectralIterate, "nonlinearity", vanishing)


def make_solution_tuple(grad, bilap, params):
    """NormTuple satisfying both the Nehari and the dilation identity.

    Given positive (grad, bilap) and params with omega, the two identities are
    linear in (omega*mass, lp) and have a unique positive solution for
    N in {1,2,3} inside the exponent window.
    """
    n, p, eps = params.bigN, params.p, params.eps
    omega = params.omega
    x = (eps * bilap * (n / p - (n - 4) / 2.0) + grad * (n / p - (n - 2) / 2.0)) / (
        n / 2.0 - n / p
    )
    lp = eps * bilap + grad + x
    assert x > 0 and lp > 0
    return NormTuple(mass=x / omega, grad=grad, bilap=bilap, lp=lp, p=p)


def rng_fields(grid, count, seed):
    """Deterministic batch of localized random fields for property tests."""
    from bnls.solvers import random_bandlimited

    return [random_bandlimited(grid, seed + k) for k in range(count)]
