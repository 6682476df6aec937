import math
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
    Field,
    bilaplacian,
    center_and_align,
    laplacian,
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
    random_bandlimited_blocks,
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
            {"max_iters": -1},
            {"tol_residual": float("nan")},
            {"tol_residual": float("inf")},
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


def reference_band_limit(grid, white, modes=20, width_frac=0.125):
    """One white-noise array made a random band-limited field, on numpy's
    n-dimensional transform pair: the one-field-at-a-time sampler."""
    axes = tuple(range(grid.dim))
    spec = np.fft.rfftn(white, axes=axes)
    k_full = 2.0 * np.pi * np.fft.fftfreq(grid.points_per_axis, d=grid.spacing)
    k_half = 2.0 * np.pi * np.fft.rfftfreq(grid.points_per_axis, d=grid.spacing)
    k2 = np.zeros(spec.shape)
    for k in np.meshgrid(*([k_full] * (grid.dim - 1) + [k_half]), indexing="ij"):
        k2 += k * k
    kc = modes * 2.0 * np.pi / grid.box_length
    spec *= np.exp(-k2 / (kc * kc))
    smooth = np.fft.irfftn(spec, s=grid.shape, axes=axes)
    r2 = np.zeros(grid.shape)
    for x in grid.coordinates():
        r2 += x * x
    sigma = width_frac * grid.box_length
    samples = smooth * np.exp(-r2 / (2.0 * sigma**2))
    peak = np.max(np.abs(samples))
    return samples / peak if peak > 0 else samples


def reference_random_field(grid, seed, modes=20, width_frac=0.125):
    """The field of one seed's own generator, filtered by the reference."""
    white = np.random.default_rng(seed).standard_normal(grid.shape)
    return reference_band_limit(grid, white, modes, width_frac)


SAMPLER_GRIDS = [BoxGrid(1, 64, 40.0), BoxGrid(2, 32, 40.0), BoxGrid(3, 32, 20.0)]


class TestSampler:
    """random_bandlimited_blocks: the rows of one generator stream, band-limited bit
    for bit as the one-field-at-a-time reference, in blocks from the byte budget."""

    @pytest.mark.parametrize("grid", SAMPLER_GRIDS)
    def test_rows_filter_one_stream(self, grid):
        (block,) = random_bandlimited_blocks(grid, 40, 7, modes=10)
        white = np.random.default_rng(40).standard_normal((7,) + grid.shape)
        for row, noise in zip(block, white):
            assert row.tobytes() == reference_band_limit(grid, noise, modes=10).tobytes()
        (block,) = random_bandlimited_blocks(grid, 40, 7)
        expected = reference_random_field(grid, 40)
        assert block[0].tobytes() == expected.tobytes()
        assert random_bandlimited(grid, 40).samples.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("grid", SAMPLER_GRIDS)
    def test_budget_split_matches_one_block_draw(self, grid, monkeypatch):
        (whole,) = random_bandlimited_blocks(grid, 5, 7)
        # a budget of three rows splits seven rows into 3 + 3 + 1
        monkeypatch.setattr(bnls.solvers, "SAMPLER_BLOCK_BYTES", 3 * 8 * grid.size)
        blocks = list(random_bandlimited_blocks(grid, 5, 7))
        assert [len(b) for b in blocks] == [3, 3, 1]
        assert np.concatenate(blocks).tobytes() == whole.tobytes()

    def test_default_budget_takes_desk_samples_in_one_block(self):
        blocks = list(random_bandlimited_blocks(BoxGrid(1, 256, 40.0), 7, 500))
        assert [b.shape for b in blocks] == [(500, 256)]

    @pytest.mark.parametrize("grid", SAMPLER_GRIDS)
    def test_k_ascent_starts_are_their_seeds_fields(self, grid, monkeypatch):
        # K_numeric band-limits its per-seed starts as one block with the
        # sampler's step, on its coarse grid (the box with a quarter of the
        # points, 32 at least); each start is still its own seed's reference
        # field on that grid
        import bnls.constants

        class Started(Exception):
            pass

        def spy(fields):
            starts.extend(f.samples.copy() for f in fields)
            raise Started

        starts = []
        monkeypatch.setattr(bnls.constants, "_SpectralIterate", spy)
        params = Params(bigN=grid.dim, p=(8.0, 5.0, 4.0)[grid.dim - 1], eps=1.0)
        with pytest.raises(Started):
            bnls.constants.K_numeric(params, grid, SolverConfig(seed=3), n_starts=3)
        assert len(starts) == 3
        coarse = BoxGrid(grid.dim, max(32, grid.points_per_axis // 4), grid.box_length)
        for k, start in enumerate(starts):
            assert start.tobytes() == reference_random_field(coarse, 3 + 101 * (k + 1)).tobytes()


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
        assert err.value.cause == "iterations"
        assert len(err.value.history) == 3
        assert math.isfinite(err.value.history[-1])

    def test_2d_ground_state(self):
        pm = Params(bigN=2, p=5.0, eps=1.0, omega=1.0)
        g = BoxGrid(2, 128, 30.0)
        gs = petviashvili(pm, g, SolverConfig())
        assert gs.residual_pde <= 1e-10
        scale = quadratic_scale(gs.nt, pm)
        assert abs(pohozaev(gs.nt, pm)) / scale <= 1e-6


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
        [(64, 40.0, "under-resolve"), (1024, 12.0, "box may be too small"),
         (256, 6.0, "box may be too small")],
    )
    def test_stall_names_binding_cause(self, params, points, box, cause):
        # 64 points cannot resolve the desk state on the desk box; L = 12 and
        # L = 6 resolve it but truncate its tails
        with pytest.raises(DivergenceError) as err:
            route_Q(params, BoxGrid(1, points, box), SolverConfig())
        message = str(err.value)
        # a converging solve goes at most 4 sweeps without a new best residual;
        # these stall STALL_WINDOW = 20 sweeps after their best, 34, 36 and 28 in all
        assert len(err.value.history) <= 40
        assert "stalled" in message
        assert "boundary amplitude ratio" in message and "spectral tail ratio" in message
        assert cause in message
        # the error's cause is the comparison the message words
        assert err.value.cause == ("grid" if cause == "under-resolve" else "box")

    @pytest.mark.parametrize("solve, label", [("route_Q", "quotient optimizer"),
                                              ("petviashvili", "petviashvili")])
    def test_blow_up_names_its_loop(self, params, grid, monkeypatch, solve, label):
        # an iterate whose mass is not finite blew up; the error names the loop it was in
        monkeypatch.setattr(bnls.solvers._SpectralIterate, "quadratic_norms",
                            lambda self, spec=None: (math.inf, 1.0, 1.0))
        with pytest.raises(DivergenceError, match=f"^{label} iterate blew up$") as err:
            getattr(bnls.solvers, solve)(params.with_omega(1.0), grid, SolverConfig())
        assert err.value.cause == "blow-up"

    def test_iterations_cause(self, params, grid):
        with pytest.raises(DivergenceError, match="no convergence") as err:
            route_Q(params, grid, SolverConfig(max_iters=3))
        assert err.value.cause == "iterations"
        assert len(err.value.history) == 3

    def test_2d_stall_names_the_grid(self):
        # 128^2 at L 40 under-resolves the p 5.7 state (spectral tail 4e-4,
        # boundary 5e-7); a 2/3-rule low-pass of the nonlinearity once hid that
        # tail, and the stall blamed the box
        with pytest.raises(DivergenceError) as err:
            route_Q(Params(bigN=2, p=5.7, eps=1.0), GRID_2D, SolverConfig())
        assert "stalled" in str(err.value)
        assert "under-resolve" in str(err.value)
        assert err.value.cause == "grid"


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


def reference_pde_residual(u, params, omega):
    """The physical-space residual pde_residual computed before it moved onto the
    spectral kernel: two operator applications and quadrature norms."""
    nl = np.abs(u.samples) ** (params.p - 2.0) * u.samples
    lin = params.eps * bilaplacian(u).samples - laplacian(u).samples + omega * u.samples
    denom = math.sqrt(u.grid.cell_volume * float(np.sum(nl**2)))
    if denom == 0.0:
        return math.inf
    return math.sqrt(u.grid.cell_volume * float(np.sum((lin - nl) ** 2))) / denom


class TestPdeResidual:
    @pytest.mark.parametrize(
        "params, grid",
        [
            (Params(bigN=1, p=8.0, eps=1.0), BoxGrid(1, 256, 40.0)),
            (Params(bigN=2, p=5.0, eps=0.5), BoxGrid(2, 64, 20.0)),
            (Params(bigN=3, p=4.0, eps=2.0), BoxGrid(3, 32, 16.0)),
        ],
        ids=["1d", "2d", "3d"],
    )
    def test_matches_physical_formula(self, params, grid):
        fields = [gaussian_bump(grid, amplitude=1.5), random_bandlimited(grid, 3)]
        for u in fields:
            for omega in (0.3, 2.0):
                expected = reference_pde_residual(u, params, omega)
                assert pde_residual(u, params, omega) == pytest.approx(expected, rel=1e-12)

    def test_zero_field_is_infinite(self, params):
        zero = Field(BoxGrid(1, 64, 10.0), np.zeros(64))
        assert pde_residual(zero, params, 1.0) == math.inf


class TestMeasuredOnce:
    """route_Q measures the solved state once, on the solver grid, and
    compute_constants reads its norms; no rescaled grid enters the table cache."""

    def test_one_table_set_and_transform_counts(self, params, grid, config, monkeypatch):
        from bnls import grid as grid_module
        from bnls.constants import compute_constants

        calls = {"rfftn": 0}
        original_rfftn = grid_module._rfftn

        def counted(*args, **kwargs):
            calls["rfftn"] += 1
            return original_rfftn(*args, **kwargs)

        original_solve = bnls.solvers._weinstein_state

        def solve(*args, **kwargs):
            result = original_solve(*args, **kwargs)
            calls["rfftn"] = 0  # count only what follows the solve
            return result

        monkeypatch.setattr(grid_module, "_rfftn", counted)
        monkeypatch.setattr(bnls.solvers, "_rfftn", counted)
        monkeypatch.setattr(bnls.solvers, "_weinstein_state", solve)
        grid_module._k2_table.cache_clear()
        q = route_Q(params, grid, config)
        assert calls["rfftn"] == 1  # one spectrum for the state's norms and its spectral tail
        calls["rfftn"] = 0
        compute_constants(q)
        assert calls["rfftn"] == 0
        assert grid_module._k2_table.cache_info().currsize == 1


PARAMS_2D = Params(bigN=2, p=5.0, eps=1.0)
GRID_2D = BoxGrid(2, 128, 40.0)


@pytest.fixture(scope="module")
def q_2d():
    """The critical-mass state of the 2D problem (128^2, L 40, p 5)."""
    return route_Q(PARAMS_2D, GRID_2D, SolverConfig())


class TestShooting:
    """The joint (field, omega) sweep of the optimizer: its sweep counts are
    deterministic, so they gate here (frequency shooting took 50, 57 and 43 in
    1D, 2D and 3D)."""

    def test_desk_problem_sweeps(self, q_state):
        assert q_state.iters <= 30

    def test_2d_sweeps(self, q_2d):
        assert q_2d.iters <= 47
        assert q_2d.residual_pde <= 1e-10

    def test_3d_sweeps(self):
        # the critical-mass solve of the ground-state-3d benchmark workload
        config = SolverConfig(tol_residual=1e-8)
        q = route_Q(Params(bigN=3, p=4.0, eps=1.0), BoxGrid(3, 64, 32.0), config)
        assert q.iters <= 36
        assert q.residual_pde <= 1e-8

    @pytest.mark.parametrize("p, gate", [(7.0, 30), (9.5, 27)])
    def test_1d_exponent_sweeps(self, p, gate):
        # frequency shooting took 44 sweeps at p 7 and 46 at p 9.5
        q = route_Q(Params(bigN=1, p=p, eps=1.0), BoxGrid(1, 1024, 40.0), SolverConfig())
        assert q.iters <= gate
        assert q.residual_pde <= 1e-10

    def test_returned_state_meets_the_tolerance(self, params, grid, config):
        # the optimizer returns the iterate its stopping test measured, with no
        # final fixed-omega solve after it: that state meets the tolerance and
        # is the optimizer to it, and a rerun returns the same bytes
        u, history, sweeps = bnls.solvers._weinstein_state(params, grid, config)
        again = bnls.solvers._weinstein_state(params, grid, config)
        assert history[-1] <= config.tol_residual
        assert sweeps == len(history)
        assert u.samples.tobytes() == again[0].samples.tobytes()
        assert (history, sweeps) == again[1:]
        ep = params.exponents()
        _, g, b = quadratic_norms(u)
        assert abs(ep.beta * params.eps * b / (ep.alpha * g) - 1.0) <= 100 * config.tol_residual

    def test_bit_identical_reruns(self, params, grid, config, q_state):
        again = route_Q(params, grid, config)
        assert np.array_equal(again.field.samples, q_state.field.samples)
        assert (again.residual_pde, again.iters) == (q_state.residual_pde, q_state.iters)

    def test_desk_problem_has_no_tail_warning(self, q_state):
        assert not any("spectral tail" in w for w in q_state.warnings)

    def test_state_carries_its_history(self, q_state):
        # one residual a sweep; the last is the reported one.  The sidecar does
        # not hold the history
        assert len(q_state.residuals) == q_state.iters
        assert q_state.residuals[-1] == q_state.residual_pde
        assert "residuals" not in q_state.sidecar()


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
        # a deterministic count: the fiber-optimal start, the conjugate
        # directions and the model step (steepest descent took 29)
        assert gs.iters <= 10

    def test_reports_the_pde_residual_of_its_field(self, params, grid, constants_report):
        # the flow stops on ||Lu - N(u)|| / ||N(u)||, the residual of every route
        # and of pde_residual; its earlier quotient-scaled measure read 9.9e-11
        # here for a field whose pde_residual is 8.0e-11
        pm = params.with_mass(2.0 * constants_report.c_eps)
        gs = mass_constrained_flow(pm, grid, SolverConfig())
        assert gs.residual_pde <= 1e-10
        measured = pde_residual(gs.field, params, gs.omega_extracted)
        assert gs.residual_pde == pytest.approx(measured, rel=1e-3)
        assert (len(gs.residuals), gs.residuals[-1]) == (gs.iters, gs.residual_pde)

    def test_iterations_cause(self, params, grid, constants_report):
        # two iterations solve nothing at 1.2 c_eps: the flow runs out of them
        pm = params.with_mass(1.2 * constants_report.c_eps)
        with pytest.raises(DivergenceError, match="^energy descent: no convergence") as err:
            mass_constrained_flow(pm, grid, SolverConfig(max_iters=2))
        assert err.value.cause == "iterations"
        assert len(err.value.history) == 2

    def test_step_size_rule(self):
        from bnls.solvers import _step_size

        # on an exact quadratic the model step is its minimizer, and without
        # curvature it stops at 4 times the last step
        assert _step_size(lambda t: t * t - 2.0 * t, 0.5, 2.0) == 1.0
        assert _step_size(lambda t: -t, 1.0, 1.0) == 4.0
        # both trials raise the energy: the smaller (the model's 0.25) is halved
        trials = []

        def change(t):
            trials.append(t)
            return -1.0 if t < 0.1 else 1.0

        assert _step_size(change, 1.0, 1.0) == 0.0625
        assert trials == [1.0, 0.25, 0.125, 0.0625]
        trials.clear()
        assert _step_size(lambda t: trials.append(t) or 1.0, 1.0, 1.0) is None
        assert len(trials) == 60

    @pytest.mark.parametrize("ratio", [1.2, 1.5])
    def test_finds_the_energy_ground_state(self, params, grid, constants_report, ratio):
        # the flow's state is the fixed-frequency ground state at its own multiplier
        gs = mass_constrained_flow(params.with_mass(ratio * constants_report.c_eps), grid,
                                   SolverConfig(tol_residual=1e-8))
        action = petviashvili(params.with_omega(gs.omega_extracted), grid, SolverConfig())
        distance = relative_l2_distance(center_and_align(gs.field),
                                        center_and_align(action.field))
        assert distance <= 1e-7
        assert action.nt.mass == pytest.approx(gs.nt.mass, rel=1e-7)

    def test_random_start_of_negative_energy_converges(self, params, constants_report):
        # the random start spreads at once, but its energy is negative, which
        # proves a minimizer exists: the flow reaches the default start's one
        # (it reported no minimizer after 2 iterations when it read only the spread)
        grid = BoxGrid(1, 2048, 20.0)
        pm = params.with_mass(2.0 * constants_report.c_eps)
        gs = mass_constrained_flow(pm, grid, SolverConfig(init="random_bandlimited"))
        assert not any("no-minimizer" in w for w in gs.warnings)
        assert gs.residual_pde <= 1e-10
        default = mass_constrained_flow(pm, grid, SolverConfig())
        assert energy(gs.nt, params) == pytest.approx(energy(default.nt, params), rel=1e-9)

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_no_roundoff_floor_near_the_minimizer(self, params, constants_report, tol):
        # a line search on the direct difference of two energies floored near
        # sqrt(machine eps), so a few ulps of c decided between convergence and
        # a stall; masses 2 ulps apart now converge alike
        def ulps(x, n):
            for _ in range(abs(n)):
                x = np.nextafter(x, math.copysign(math.inf, n))
            return x

        grid = BoxGrid(1, 2048, 20.0)
        config = SolverConfig(tol_residual=tol, max_iters=30000)
        runs = [
            mass_constrained_flow(
                params.with_mass(ulps(2.0 * constants_report.c_eps, n)), grid, config
            )
            for n in (-2, 0, 2)
        ]
        assert len({gs.iters for gs in runs}) == 1
        assert all(gs.residual_pde <= tol for gs in runs)

    @pytest.mark.parametrize("ratio, omega", [(1.01, 2.49), (1.05, 5.98)])
    def test_just_above_critical_mass_finds_the_minimizer(
        self, params, grid, constants_report, ratio, omega
    ):
        # the Gaussian bump's own fiber already dips below zero energy here;
        # started from the bump itself the flow spread at once
        pm = params.with_mass(ratio * constants_report.c_eps)
        gs = mass_constrained_flow(pm, grid, SolverConfig())
        assert not any("no-minimizer" in w for w in gs.warnings)
        assert gs.residual_pde <= 1e-10
        assert energy(gs.nt, params) < 0
        assert gs.omega_extracted == pytest.approx(omega, rel=1e-3)

    @pytest.mark.parametrize("ratio", [0.5, 0.99])
    def test_below_critical_mass_reports_no_minimizer(self, params, grid, constants_report, ratio):
        pm = params.with_mass(ratio * constants_report.c_eps)
        gs = mass_constrained_flow(pm, grid, SolverConfig())
        assert any("no-minimizer" in w for w in gs.warnings)

    def test_2d_above_critical_mass_converges(self, q_2d):
        # 1.2 times the critical mass: the line search floored near 1e-8 and
        # ran out of its 5000 iterations
        gs = mass_constrained_flow(PARAMS_2D.with_mass(1.2 * q_2d.nt.mass), GRID_2D,
                                   SolverConfig())
        assert gs.residual_pde <= 1e-10
        assert energy(gs.nt, PARAMS_2D) < 0

    def test_subcritical_reports_no_minimizer(self, params, constants_report):
        grid = BoxGrid(1, 256, 30.0)
        pm = params.with_mass(0.2 * constants_report.c_eps)
        gs = mass_constrained_flow(pm, grid, SolverConfig(tol_residual=1e-9, max_iters=4000))
        assert any("no-minimizer" in w for w in gs.warnings)
        # the constrained infimum is zero from above at subcritical mass
        assert energy(gs.nt, params) > -1e-8


class TestAndersonMix:
    """_SpectralIterate.mix on a linear contraction G(x) = x* + A (x - x*), A diagonal in k
    with rates from 0.1 to 0.95, one fixed point x* per batch row."""

    grid = BoxGrid(1, 64, 10.0)
    rate = np.linspace(0.1, 0.95, 33)

    def setup_method(self):
        rng = np.random.default_rng(3)
        self.fields = [Field(self.grid, rng.standard_normal(64)) for _ in range(3)]
        self.target = np.fft.rfft(rng.standard_normal((3, 64)))

    def sweep(self, state, target, mixing):
        """One step of G into ``next``, mixed unless ``mixing`` is False; returns G's image."""
        np.subtract(state.spec, target, out=state.next)
        state.next *= self.rate
        state.next += target
        image = state.next.copy()
        if mixing:
            state.mix()
        return image

    def run(self, state, target, sweeps, mixing=True):
        """Sweeps of G."""
        for _ in range(sweeps):
            self.sweep(state, target, mixing)
            state.advance()
        return np.abs(state.spec - target).max()

    def test_mixing_beats_the_plain_fixed_point(self):
        plain = self.run(bnls.solvers._SpectralIterate(self.fields), self.target, 30, mixing=False)
        mixed = self.run(bnls.solvers._SpectralIterate(self.fields), self.target, 30)
        assert mixed < 0.1 * plain

    def test_step_is_the_image_less_gamma_times_its_change(self):
        # gamma = <f, df> / <df, df> over the real and imaginary parts of each row
        state = bnls.solvers._SpectralIterate(self.fields)
        self.run(state, self.target, 3)
        g_last = self.sweep(state, self.target, True)
        f_last = g_last - state.spec
        state.advance()
        g = self.sweep(state, self.target, False)
        f = g - state.spec
        df, dg = f - f_last, g - g_last
        f_df = np.sum(f.real * df.real + f.imag * df.imag, axis=1)
        df_df = np.sum(df.real**2 + df.imag**2, axis=1)
        assert np.all(2.0 * f_df < df_df)  # every residual fell, so every row mixes
        expected = g - (f_df / df_df)[:, None] * dg
        state.mix()
        assert np.abs(state.next - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_lone_iterate_matches_one_row_batch(self):
        # a fixed-frequency solve mixes a lone iterate, the K ascent a batch
        lone = bnls.solvers._SpectralIterate(self.fields[0])
        batch = bnls.solvers._SpectralIterate([self.fields[0]])
        plain = bnls.solvers._SpectralIterate(self.fields[0])
        error = self.run(lone, self.target[0], 20)
        self.run(batch, self.target[:1], 20)
        assert error < 0.1 * self.run(plain, self.target[0], 20, mixing=False)
        assert lone.spec.tobytes() == batch.spec[0].tobytes()

    def test_history_holds_two_spectra_per_row(self):
        # the last (f, g) pair: 2 spectra a row, allocated by the first call
        # and never again
        grid = BoxGrid(1, 1024, 10.0)
        rng = np.random.default_rng(5)
        state = bnls.solvers._SpectralIterate([Field(grid, rng.standard_normal(1024))
                                               for _ in range(3)])
        target = np.fft.rfft(rng.standard_normal((3, 1024)))
        rate = np.linspace(0.1, 0.95, 513)
        tracemalloc.start()
        try:
            for _ in range(6):
                np.subtract(state.spec, target, out=state.next)
                state.next *= rate
                state.next += target
                state.mix()
                state.advance()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        spectra = held / state.spec[0].nbytes
        assert 2 * len(state.spec) <= spectra < 2 * len(state.spec) + 0.5

    def test_extra_coordinate_is_mixed_with_the_spectrum(self):
        # the optimizer mixes w log omega as one more real coordinate: here a
        # slow contraction x -> x* + 0.95 (x - x*) beside the spectrum's
        x_star = 0.7
        ends = {}
        for kind in ("plain", "lone", "batch"):
            state = bnls.solvers._SpectralIterate(
                [self.fields[0]] if kind == "batch" else self.fields[0])
            x = np.zeros(1) if kind == "batch" else 0.0
            for _ in range(20):
                self.sweep(state, self.target[0], mixing=False)
                image = x_star + 0.95 * (x - x_star)
                x = image if kind == "plain" else state.mix((x, image))
                state.advance()
            ends[kind] = (x, state.spec.tobytes())
        assert abs(ends["lone"][0] - x_star) < 0.1 * abs(ends["plain"][0] - x_star)
        assert ends["batch"][0].tolist() == [ends["lone"][0]]
        assert ends["batch"][1] == ends["lone"][1]

    def test_row_whose_residual_grew_takes_the_plain_step(self):
        state = bnls.solvers._SpectralIterate(self.fields)
        self.run(state, self.target, 3)
        f_last = self.sweep(state, self.target, True) - state.spec
        state.advance()
        state.spec[1] += 10.0 * (state.spec[1] - self.target[1])  # push row 1 off x*
        image = self.sweep(state, self.target, True)
        f = image - state.spec
        grew = np.sum(np.abs(f) ** 2, axis=1) > np.sum(np.abs(f_last) ** 2, axis=1)
        assert grew.tolist() == [False, True, False]
        assert np.array_equal(state.next[1], image[1])
        assert not np.array_equal(state.next[0], image[0])
        assert not np.array_equal(state.next[2], image[2])


class TestMemoryBudget:
    """The spectral kernel reuses its arrays: peak traced memory stays at or below its
    level before the in-place transforms and iterate buffers (numpy 2.4, bytes)."""

    SOLVE_PEAK = 2_041_795
    FLOW_PEAK = 3_142_354

    def test_3d_route_q_and_mass_flow(self):
        from bnls.grid import _k2_table

        params = Params(bigN=3, p=4.0, eps=1.0)
        grid = BoxGrid(3, 32, 20.0)
        config = SolverConfig(tol_residual=1e-6)
        _k2_table.cache_clear()  # count the tables, as a fresh process would
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

    def test_k_ascent_history_fits_a_mebibyte(self, params, grid, config):
        # eight 1D desk starts on the 256-point coarse grid: the mixing history
        # is 2 spectra a row, 33 kB, and the whole ascent peaks near 185 kB, as
        # the batch is freed before the best row is polished on 1024 points
        from bnls.constants import K_numeric

        K_numeric(params, grid, config)  # the tables, as every later ascent finds them
        tracemalloc.start()
        try:
            K_numeric(params, grid, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 200_000


class TestFlowIterations:
    def test_3d_flow_at_twice_the_critical_mass(self):
        # the memory test's problem: a deterministic count of conjugate-gradient
        # iterations (steepest descent took 18)
        params = Params(bigN=3, p=4.0, eps=1.0)
        grid = BoxGrid(3, 32, 20.0)
        config = SolverConfig(tol_residual=1e-6)
        q = route_Q(params, grid, config)
        gs = mass_constrained_flow(params.with_mass(2.0 * q.nt.mass), grid, config)
        assert gs.residual_pde <= 1e-6
        assert gs.iters <= 9


class TestGroundStateSidecar:
    def test_contents(self, q_state, config):
        doc = q_state.sidecar(config)
        assert doc["route"] == "weinstein_Q"
        assert doc["params"]["p"] == 8.0
        assert doc["norms"]["mass"] == q_state.nt.mass
        assert doc["config_hash"] == config.config_hash()
        assert isinstance(doc["warnings"], list)
