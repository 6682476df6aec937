import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnls.constants import (
    K_from_C,
    K_from_c_eps,
    K_numeric,
    c_eps_formula,
    c_eps_from_K,
    compute_constants,
    eps_c_formula,
    omega_formula,
)
from bnls.errors import RegimeError
from bnls.functionals import Params


@st.composite
def regime_params(draw):
    n = draw(st.integers(1, 3))
    lo, hi = 2.0 + 4.0 / n, 2.0 + 8.0 / n
    width = hi - lo
    p = draw(st.floats(lo + 0.05 * width, hi - 0.05 * width))
    eps = draw(st.floats(0.05, 20.0))
    return Params(bigN=n, p=p, eps=eps)


class TestCepsFormula:
    def test_unit_constant_n1_p8(self):
        pm = Params(bigN=1, p=8.0, eps=1.0)
        assert c_eps_formula(1.0, pm) == pytest.approx(2.0, rel=1e-14)

    def test_eps_64(self):
        pm = Params(bigN=1, p=8.0, eps=64.0)
        assert c_eps_formula(1.0, pm) == pytest.approx(4.0, rel=1e-14)

    def test_n2_p5(self):
        pm = Params(bigN=2, p=5.0, eps=1.0)
        assert c_eps_formula(1.0, pm) == pytest.approx(5.0 ** (2.0 / 3.0), rel=1e-14)

    def test_rejects_bad_constant(self):
        pm = Params(bigN=1, p=8.0, eps=1.0)
        with pytest.raises(RegimeError):
            c_eps_formula(0.0, pm)

    @given(regime_params(), st.floats(0.1, 10.0))
    @settings(max_examples=80)
    def test_eps_scaling_law(self, pm, s):
        from dataclasses import replace

        ep = pm.exponents()
        base = c_eps_formula(1.3, pm)
        scaled = c_eps_formula(1.3, replace(pm, eps=s * pm.eps))
        assert scaled / base == pytest.approx(s ** (ep.alpha / (pm.p - 2.0)), rel=1e-12)


class TestEpsCFormula:
    def test_inverse_of_first_example(self):
        pm = Params(bigN=1, p=8.0, eps=1.0)
        assert eps_c_formula(2.0, 1.0, pm) == pytest.approx(1.0, rel=1e-14)

    @given(regime_params(), st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    @settings(max_examples=80)
    def test_roundtrip(self, pm, c, C):
        from dataclasses import replace

        eps_c = eps_c_formula(c, C, pm)
        back = c_eps_formula(C, replace(pm, eps=eps_c))
        assert back == pytest.approx(c, rel=1e-12)

    def test_monotone_in_mass(self):
        pm = Params(bigN=1, p=8.0, eps=1.0)
        assert eps_c_formula(2.0, 1.0, pm) < eps_c_formula(4.0, 1.0, pm)


class TestKRoutes:
    def test_lemma_value(self):
        pm = Params(bigN=1, p=8.0, eps=1.0)
        assert K_from_c_eps(2.0, pm) == pytest.approx(0.5, rel=1e-14)

    @given(regime_params(), st.floats(0.1, 10.0))
    @settings(max_examples=80)
    def test_inversion_roundtrip(self, pm, c_eps):
        assert c_eps_from_K(K_from_c_eps(c_eps, pm), pm) == pytest.approx(c_eps, rel=1e-12)

    @given(regime_params(), st.floats(0.1, 10.0))
    @settings(max_examples=80)
    def test_two_routes_agree(self, pm, C):
        via_c = K_from_c_eps(c_eps_formula(C, pm), pm)
        direct = K_from_C(C, pm)
        assert direct == pytest.approx(via_c, rel=1e-12)

    def test_agreement_example(self):
        pm = Params(bigN=1, p=8.0, eps=1.0)
        assert K_from_C(1.0, pm) == pytest.approx(K_from_c_eps(2.0, pm), rel=1e-14)


class TestOmegaFormula:
    def test_n1_p8(self):
        assert omega_formula(1.0, Params(bigN=1, p=8.0, eps=1.0)) == pytest.approx(6.0)

    def test_n2_p5(self):
        assert omega_formula(1.0, Params(bigN=2, p=5.0, eps=1.0)) == pytest.approx(3.0)

    @given(regime_params(), st.floats(0.1, 10.0))
    @settings(max_examples=40)
    def test_inverse_eps_scaling(self, pm, s):
        from dataclasses import replace

        assert omega_formula(1.7, replace(pm, eps=s * pm.eps)) * s == pytest.approx(
            omega_formula(1.7, pm), rel=1e-12
        )


class TestPipeline:
    def test_report_consistency_triangle(self, params, grid, config, constants_report):
        cr = constants_report
        assert K_from_C(cr.C, params) == pytest.approx(cr.K, rel=1e-10)
        assert cr.c_eps == pytest.approx(c_eps_formula(cr.C, params), rel=1e-14)
        assert cr.omega_eps == pytest.approx(omega_formula(cr.v_mass, params), rel=1e-14)
        # eps_c is reported at c = c_eps, so it returns eps itself
        assert cr.eps_c == pytest.approx(params.eps, rel=1e-10)
        assert cr.provenance["C"].startswith("numeric")
        assert cr.provenance["c_eps"].startswith("formula")

    def test_report_table_and_dict(self, constants_report):
        table = constants_report.table()
        assert "c_eps" in table and "omega_eps" in table
        doc = constants_report.as_dict()
        assert doc["C"] == constants_report.C

    def test_k_numeric_two_random_starts(self, params, grid, config, constants_report):
        got = K_numeric(params, grid, config, n_starts=2)
        assert got == pytest.approx(constants_report.K, rel=1e-4)

    def test_compute_constants_with_k_numeric(self, params, config):
        from bnls.grid import BoxGrid
        from bnls.solvers import route_Q

        small = BoxGrid(1, 512, 40.0)
        q = route_Q(params, small, config)
        cr = compute_constants(q, K_numeric(params, small, config))
        assert cr.K_numeric == pytest.approx(cr.K, rel=1e-3)
        assert cr.provenance["K_numeric"].startswith("numeric")


class TestComputeConstants:
    """compute_constants reads C and v_mass off the state's norms by the exact
    scaling laws; the reference measures the unit-normalized optimizer."""

    @pytest.mark.parametrize(
        "params, grid, tol",
        [
            (Params(bigN=1, p=8.0, eps=1.0), (1, 512, 40.0), 1e-9),
            (Params(bigN=2, p=5.0, eps=1.0), (2, 64, 24.0), 1e-8),
            (Params(bigN=3, p=4.0, eps=1.0), (3, 32, 20.0), 1e-6),
        ],
        ids=["1d", "2d", "3d"],
    )
    def test_matches_normalized_optimizer(self, params, grid, tol):
        from bnls.functionals import weinstein
        from bnls.grid import BoxGrid, norms
        from bnls.scalings import lambda_normalize
        from bnls.solvers import SolverConfig, route_Q

        q = route_Q(params, BoxGrid(*grid), SolverConfig(tol_residual=tol))
        cr = compute_constants(q)
        nt_v = norms(lambda_normalize(q.field), params.p)
        assert cr.C == pytest.approx(1.0 / weinstein(nt_v, params), rel=1e-13)
        assert cr.v_mass == pytest.approx(nt_v.mass, rel=1e-13)


class TestKAscent:
    """The batched, Anderson-mixed K ascent from random starts only: its transform
    budget, determinism, and the sharpness of every start in d = 1, 2, 3."""

    def test_transform_budget_and_sharpness(self, params, grid, config, constants_report,
                                             monkeypatch):
        import bnls.grid
        import bnls.solvers

        calls = {"kernel": 0, "numpy n-dimensional": 0}
        patches = [(module, name, "kernel") for module in (bnls.grid, bnls.solvers)
                   for name in ("_rfftn", "_irfftn")]
        patches += [(np.fft, name, "numpy n-dimensional") for name in ("rfftn", "irfftn")]
        for module, name, kind in patches:
            original = getattr(module, name)

            def counted(*args, _original=original, _kind=kind, **kwargs):
                calls[_kind] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        k = K_numeric(params, grid, config)
        # eight starts run to stagnation as one batch: 2 transforms make the
        # starts, 1 the iterate and 2 each of the 30 sweeps, 63 in all; the gate
        # allows 2 sweeps more.  Every transform goes through the grid module's pair
        assert 0 < calls["kernel"] <= 67
        assert calls["numpy n-dimensional"] == 0
        assert abs(k / constants_report.K - 1.0) <= 1e-14

    def test_bit_identical_at_any_thread_count(self, params, grid, config):
        # the ascent starts no thread (only `sweep` does, tested in test_cli),
        # so a rerun returning the same value is the whole claim
        assert K_numeric(params, grid, config) == K_numeric(params, grid, config)

    def test_2d_reaches_closed_form(self, config):
        from bnls.grid import BoxGrid
        from bnls.solvers import route_Q
        from bnls.verify import TolProfile, verify_constants

        params2 = Params(bigN=2, p=5.0, eps=1.0)
        grid2 = BoxGrid(2, 128, 40.0)
        q = route_Q(params2, grid2, config)
        cr = compute_constants(q, K_numeric(params2, grid2, config))
        report = verify_constants(cr, params2)
        (check,) = [c for c in report.checks if c.name == "const.k_numeric_close"]
        assert check.passed and check.tol == TolProfile().algebraic

    @pytest.mark.parametrize(
        "params, grid, tol",
        [
            (Params(bigN=1, p=8.0, eps=1.0), (1, 1024, 40.0), 1e-10),
            (Params(bigN=2, p=5.0, eps=1.0), (2, 128, 40.0), 1e-10),
            # 64^3 on a box of 24: on 32^3 at L 20 a half-cell shift of the
            # optimizer lowers the discrete quotient by 2e-8 per axis, so there a
            # start's gap depends on the lattice site it settles on; here the
            # shift moves the quotient by under 1e-15.  The closed form is
            # taken from a solve to 1e-7: its error is quadratic in the
            # residual, 1.5e-12 at 1e-6, and the box floors it near 2.4e-8
            (Params(bigN=3, p=4.0, eps=1.0), (3, 64, 24.0), 1e-7),
        ],
        ids=["1d", "2d", "3d"],
    )
    def test_every_start_reaches_closed_form(self, params, grid, tol):
        from dataclasses import replace

        from bnls.grid import BoxGrid
        from bnls.solvers import SolverConfig, route_Q

        grid = BoxGrid(*grid)
        config = SolverConfig(tol_residual=tol)
        K = compute_constants(route_Q(params, grid, config)).K
        for seed in (0, 1, 2, 405):  # rng seeds 101, 102, 103 and 506
            k = K_numeric(params, grid, replace(config, seed=seed), n_starts=1)
            assert abs(k / K - 1.0) <= 1e-12, seed

    @pytest.mark.parametrize("seed", [1, 405], ids=["rng-102", "rng-506"])
    def test_mixing_safeguard_keeps_start_off_lower_critical_point(
        self, params, grid, config, constants_report, seed
    ):
        # mixed with no safeguard at all, the start of rng seed 102 once ended
        # on a critical point at 0.18 K; a row whose residual grew now takes
        # the plain step, and both this start and that of rng seed 506 must
        # still climb to K on the desk grid
        from dataclasses import replace

        k = K_numeric(params, grid, replace(config, seed=seed), n_starts=1)
        assert abs(k / constants_report.K - 1.0) <= 1e-12
