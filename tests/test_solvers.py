import tracemalloc

import numpy as np
import pytest

import bnls.solvers
from bnls.errors import ConfigurationError, DivergenceError
from bnls.functionals import (
    Params,
    energy,
    nehari_residual,
    pohozaev,
    quadratic_scale,
    weinstein,
)
from bnls.grid import (
    BoxGrid,
    center_and_align,
    norms,
    quadratic_norms,
    regrid,
    relative_l2_distance,
)
from bnls.solvers import (
    SolverConfig,
    extract_omega,
    gaussian_bump,
    mass_constrained_flow,
    pde_residual,
    petviashvili,
    random_bandlimited,
    route_Q,
)
from bnls.scalings import lambda_normalize


def optimizer(params, grid, config):
    """Unit-norm optimizer v and C = 1/W_p(v), derived from one route_Q solve."""
    v = lambda_normalize(route_Q(params, grid, config).field)
    return v, 1.0 / weinstein(norms(v, params.p), params)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tol_residual == 1e-10
        assert cfg.init == "gaussian_bump"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": 0},
            {"tol_residual": 0.0},
            {"relaxation": 0.0},
            {"relaxation": 1.5},
            {"init": "bogus"},
            {"init": "stored_field"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            SolverConfig(**kwargs)

    def test_hash_stable_and_sensitive(self):
        a = SolverConfig().config_hash()
        assert a == SolverConfig().config_hash()
        assert a != SolverConfig(seed=1).config_hash()


class TestInitialFields:
    def test_random_bandlimited_deterministic(self):
        g = BoxGrid(1, 128, 40.0)
        a = random_bandlimited(g, seed=9)
        b = random_bandlimited(g, seed=9)
        assert np.array_equal(a.samples, b.samples)
        c = random_bandlimited(g, seed=10)
        assert not np.array_equal(a.samples, c.samples)

    def test_gaussian_bump_centered_unit_peak(self):
        g = BoxGrid(1, 128, 40.0)
        u = gaussian_bump(g)
        assert u.samples[64] == pytest.approx(1.0)
        assert u.samples[64] == u.samples.max()


class TestPetviashvili:
    def test_sech_soliton_oracle(self, grid):
        # closed form for -u'' + u = u^7: u = (p/2)^(1/6) sech^(1/3)(3x),
        # verified by substitution into the equation
        pm = Params(bigN=1, p=8.0, eps=0.0, omega=1.0, relaxed=True)
        gs = petviashvili(pm, grid, SolverConfig())
        x = grid.axis_coordinates()
        exact = 4.0 ** (1.0 / 6.0) * np.cosh(3.0 * x) ** (-1.0 / 3.0)
        aligned = center_and_align(gs.field)
        err = np.max(np.abs(aligned.samples - exact)) / exact.max()
        assert err <= 1e-6

    def test_requires_positive_omega(self, grid):
        with pytest.raises(ConfigurationError):
            petviashvili(Params(bigN=1, p=8.0, eps=1.0), grid, SolverConfig())
        with pytest.raises(ConfigurationError):
            petviashvili(Params(bigN=1, p=8.0, eps=1.0, omega=-1.0), grid, SolverConfig())

    def test_grid_dimension_must_match(self):
        pm = Params(bigN=2, p=5.0, eps=1.0, omega=1.0)
        with pytest.raises(ConfigurationError):
            petviashvili(pm, BoxGrid(1, 128, 40.0), SolverConfig())

    def test_converged_identities(self, grid):
        pm = Params(bigN=1, p=8.0, eps=1.0, omega=2.0)
        gs = petviashvili(pm, grid, SolverConfig())
        assert gs.residual_pde <= 1e-10
        scale = quadratic_scale(gs.nt, pm)
        assert abs(nehari_residual(gs.nt, pm)) / scale <= 1e-10
        assert abs(pohozaev(gs.nt, pm)) / scale <= 1e-6
        assert abs(gs.omega_extracted - 2.0) / 2.0 <= 1e-10
        assert gs.route == "petviashvili"

    def test_divergence_error_carries_history(self, grid):
        pm = Params(bigN=1, p=8.0, eps=1.0, omega=2.0)
        with pytest.raises(DivergenceError) as err:
            petviashvili(pm, grid, SolverConfig(max_iters=3, tol_residual=1e-14))
        assert err.value.last_residual is not None
        assert len(err.value.history) == 3

    def test_2d_ground_state(self):
        pm = Params(bigN=2, p=5.0, eps=1.0, omega=1.0)
        g = BoxGrid(2, 128, 30.0)
        gs = petviashvili(pm, g, SolverConfig())
        assert gs.residual_pde <= 1e-10
        scale = quadratic_scale(gs.nt, pm)
        assert abs(pohozaev(gs.nt, pm)) / scale <= 1e-6

    def test_spectral_filter_mode_runs(self, grid):
        pm = Params(bigN=1, p=8.0, eps=1.0, omega=2.0)
        gs = petviashvili(pm, grid, SolverConfig(filter=True, tol_residual=1e-9))
        assert gs.residual_pde <= 1e-9


class TestWeinstein:
    def test_seed_independence(self, params, grid):
        va, ca = optimizer(params, grid, SolverConfig(init="random_bandlimited", seed=3))
        vb, cb = optimizer(params, grid, SolverConfig(init="random_bandlimited", seed=4))
        assert ca == pytest.approx(cb, rel=1e-8)
        common = BoxGrid(1, 1024, 40.0)
        da = center_and_align(regrid(va, common))
        db = center_and_align(regrid(vb, common))
        assert relative_l2_distance(da, db) <= 1e-6

    def test_output_normalized_and_consistent(self, params, q_state, constants_report):
        v = lambda_normalize(q_state.field)
        _, g, b = quadratic_norms(v)
        assert abs(g - 1.0) <= 1e-10
        assert abs(b - 1.0) <= 1e-10
        c_best = constants_report.C
        assert c_best * weinstein(norms(v, params.p), params) == pytest.approx(1.0, rel=1e-12)

    def test_resolution_stability(self, params):
        _, c1 = optimizer(params, BoxGrid(1, 512, 40.0), SolverConfig())
        _, c2 = optimizer(params, BoxGrid(1, 1024, 40.0), SolverConfig())
        assert c1 == pytest.approx(c2, rel=1e-8)

    @pytest.mark.parametrize(
        "points, box, cause",
        [(64, 40.0, "under-resolve"), (1024, 12.0, "box may be too small")],
    )
    def test_stall_names_binding_cause(self, params, points, box, cause):
        # 64 points cannot resolve the desk state on the desk box; L = 12
        # resolves it but truncates its tails
        with pytest.raises(DivergenceError) as err:
            route_Q(params, BoxGrid(1, points, box), SolverConfig())
        message = str(err.value)
        assert "stalled" in message
        assert "boundary amplitude ratio" in message and "spectral tail ratio" in message
        assert cause in message


class TestRouteQ:
    def test_identities(self, q_state, params):
        nt = q_state.nt
        ep = params.exponents()
        assert q_state.route == "weinstein_Q"
        assert q_state.residual_pde <= 1e-10
        assert nt.grad * ep.alpha / (ep.beta * params.eps * nt.bilap) == pytest.approx(
            1.0, abs=1e-6
        )
        assert nt.grad * params.p / (ep.beta * nt.lp) == pytest.approx(1.0, abs=1e-6)
        scale = quadratic_scale(nt, params.with_omega(q_state.omega_extracted))
        assert abs(energy(nt, params)) / scale <= 1e-10
        assert q_state.omega_extracted > 0

    def test_mass_is_critical(self, q_state, constants_report):
        assert q_state.nt.mass == pytest.approx(constants_report.c_eps, rel=1e-4)

    def test_physical_residual_small(self, q_state, params):
        assert pde_residual(q_state.field, params, q_state.omega_extracted) <= 1e-6


class TestShooting:
    """Inexact inner solves: counts are deterministic, so they gate here."""

    def test_desk_problem_sweeps(self, q_state):
        assert q_state.iters <= 110

    def test_2d_sweeps(self):
        q = route_Q(Params(bigN=2, p=5.0, eps=1.0), BoxGrid(2, 128, 40.0), SolverConfig())
        assert q.iters <= 160
        assert q.residual_pde <= 1e-10

    def test_returned_state_is_polished(self, params, grid, config, monkeypatch):
        inner = []
        original = bnls.solvers._petviashvili_state

        def recorded(*args, **kwargs):
            out = original(*args, **kwargs)
            inner.append((kwargs["tol"], out[1]))
            return out

        monkeypatch.setattr(bnls.solvers, "_petviashvili_state", recorded)
        q = route_Q(params, grid, config)
        inner_floor = min(1e-12, 0.1 * config.tol_residual)
        # the early solves are loose, the state returned is converged to the floor
        assert max(tol for tol, _ in inner) > 1e3 * inner_floor
        assert inner[-1][1] <= inner_floor
        assert q.residual_pde <= config.tol_residual

    def test_bit_identical_reruns(self, params, grid, config, q_state):
        again = route_Q(params, grid, config)
        assert np.array_equal(again.field.samples, q_state.field.samples)
        assert (again.residual_pde, again.iters) == (q_state.residual_pde, q_state.iters)

    def test_desk_problem_has_no_tail_warning(self, q_state):
        assert not any("spectral tail" in w for w in q_state.warnings)


class TestRouteEquivalence:
    def test_states_match(self, q_state, action_state):
        common = BoxGrid(
            1,
            max(q_state.field.grid.points_per_axis, action_state.field.grid.points_per_axis),
            max(q_state.field.grid.box_length, action_state.field.grid.box_length),
        )
        a = center_and_align(regrid(q_state.field, common))
        b = center_and_align(regrid(action_state.field, common))
        assert relative_l2_distance(a, b) <= 1e-3
        assert abs(q_state.nt.mass - action_state.nt.mass) / q_state.nt.mass <= 1e-4

    def test_action_state_energy_zero(self, action_state):
        pm = action_state.params
        scale = quadratic_scale(action_state.nt, pm)
        assert abs(energy(action_state.nt, pm)) / scale <= 1e-6


class TestMassFlow:
    def test_requires_mass(self, grid):
        with pytest.raises(ConfigurationError):
            mass_constrained_flow(Params(bigN=1, p=8.0, eps=1.0), grid, SolverConfig())

    def test_supercritical_descends_below_zero(self, params, constants_report):
        grid = BoxGrid(1, 2048, 20.0)
        pm = params.with_mass(2.0 * constants_report.c_eps)
        trace = []
        gs = mass_constrained_flow(
            pm, grid, SolverConfig(tol_residual=1e-8, max_iters=30000), energy_trace=trace
        )
        assert gs.route == "mass_flow"
        assert gs.nt.mass == pytest.approx(pm.mass_c, rel=1e-12)
        scale = params.eps * gs.nt.bilap + gs.nt.grad
        assert energy(gs.nt, params) < -1e-6 * scale
        diffs = np.diff(np.array(trace))
        assert np.all(diffs <= 1e-12 * np.abs(trace[0]))
        # Lagrange-multiplier consistency: the extracted frequency closes the PDE
        assert pde_residual(gs.field, params, gs.omega_extracted) <= 1e-6
        assert gs.omega_extracted > 0

    def test_subcritical_reports_no_minimizer(self, params, constants_report):
        grid = BoxGrid(1, 256, 30.0)
        pm = params.with_mass(0.2 * constants_report.c_eps)
        gs = mass_constrained_flow(pm, grid, SolverConfig(tol_residual=1e-9, max_iters=4000))
        assert any("no-minimizer" in w for w in gs.warnings)
        # the constrained infimum is zero from above at subcritical mass
        assert energy(gs.nt, params) > -1e-8


class TestMemoryBudget:
    """The spectral kernel reuses its arrays: peak traced memory stays at or below its
    level before the in-place transforms and iterate buffers (numpy 2.4, bytes)."""

    SOLVE_PEAK = 2_041_795
    FLOW_PEAK = 3_142_354

    def test_3d_route_q_and_mass_flow(self):
        from bnls.grid import _spectral_tables

        params = Params(bigN=3, p=4.0, eps=1.0)
        grid = BoxGrid(3, 32, 20.0)
        config = SolverConfig(tol_residual=1e-6)
        _spectral_tables.cache_clear()  # count the tables, as a fresh process would
        tracemalloc.start()
        try:
            q = route_Q(params, grid, config)
            _, solve_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            mass_constrained_flow(params.with_mass(2.0 * q.nt.mass), grid, config)
            _, flow_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert solve_peak <= self.SOLVE_PEAK
        assert flow_peak <= self.FLOW_PEAK


class TestGroundStateSidecar:
    def test_contents(self, q_state, config):
        doc = q_state.sidecar(config)
        assert doc["route"] == "weinstein_Q"
        assert doc["params"]["p"] == 8.0
        assert doc["norms"]["mass"] == q_state.nt.mass
        assert doc["config_hash"] == config.config_hash()
        assert isinstance(doc["warnings"], list)
