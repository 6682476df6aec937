import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnls.errors import PreconditionError, RegimeError
from bnls.functionals import Params, action, nehari_residual, pohozaev, quadratic_scale
from bnls.grid import BoxGrid, Field, NormTuple, norms, quadratic_norms
from bnls.scalings import (
    action_gap_decomposition,
    construct_Q,
    fiber_scale_laws,
    fiber_t_grid,
    g_functions,
    h_profile,
    lambda_normalize,
    mass_preserving_scale_laws,
    omega_formula,
    resample,
    t_eps,
)
from bnls.solvers import gaussian_bump

from conftest import make_solution_tuple

PM = Params(bigN=1, p=8.0, eps=1.0)
NT = NormTuple(mass=1.0, grad=1.0, bilap=1.0, lp=1.0, p=8.0)


class TestTupleLaws:
    def test_mass_preserving_identity_at_one(self):
        assert mass_preserving_scale_laws(NT, 1.0, PM) == NT

    def test_mass_preserving_t_two(self):
        out = mass_preserving_scale_laws(NT, 2.0, PM)
        assert (out.mass, out.grad, out.bilap, out.lp) == (1.0, 4.0, 16.0, 8.0)

    def test_fiber_identity_at_one(self):
        assert fiber_scale_laws(NT, 1.0, PM) == NT

    def test_fiber_t_two(self):
        out = fiber_scale_laws(NT, 2.0, PM)
        assert (out.mass, out.grad, out.bilap, out.lp) == (2.0, 8.0, 32.0, 128.0)

    def test_fiber_mass_matching_choice(self):
        # t = (c / mass)^(1/N) lands exactly on mass c
        nt = NormTuple(mass=3.7, grad=2.0, bilap=1.0, lp=5.0, p=8.0)
        c = 1.234
        out = fiber_scale_laws(nt, (c / nt.mass) ** (1.0 / PM.bigN), PM)
        assert out.mass == pytest.approx(c, rel=1e-12)

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_nonpositive_t_rejected(self, t):
        with pytest.raises(ValueError):
            mass_preserving_scale_laws(NT, t, PM)
        with pytest.raises(ValueError):
            fiber_scale_laws(NT, t, PM)


class TestResample:
    @pytest.mark.parametrize("mu", [0.0, -1.0])
    def test_nonpositive_factor_rejected(self, mu):
        u = Field(BoxGrid(1, 64, 10.0), np.ones(64))
        with pytest.raises(ValueError, match="resample factor must be positive"):
            resample(u, mu)

    def test_identity(self):
        g = BoxGrid(1, 256, 2 * np.pi)
        u = Field(g, np.sin(3 * g.axis_coordinates()))
        out = resample(u, 1.0)
        assert out.grid == g
        assert np.array_equal(out.samples, u.samples)

    def test_sine_mass_halves(self):
        g = BoxGrid(1, 256, 2 * np.pi)
        u = Field(g, np.sin(3 * g.axis_coordinates()))
        out = resample(u, 2.0)
        assert out.grid.box_length == pytest.approx(np.pi)
        assert norms(out, 4.0).mass == pytest.approx(np.pi / 2, rel=1e-12)

    def test_composition_exact(self):
        g = BoxGrid(1, 64, 10.0)
        u = Field(g, np.random.default_rng(3).standard_normal(64))
        out = resample(resample(u, 2.0), 0.5)
        assert out.grid == u.grid
        assert np.array_equal(out.samples, u.samples)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=30)
    def test_norm_laws_exact(self, mu):
        g = BoxGrid(1, 64, 10.0)
        u = Field(g, np.cos(2 * np.pi * g.axis_coordinates() / 10.0) ** 2)
        before = norms(u, 4.0)
        after = norms(resample(u, mu), 4.0)
        assert after.mass == pytest.approx(before.mass / mu, rel=1e-12)
        assert after.grad == pytest.approx(before.grad * mu, rel=1e-12)
        assert after.bilap == pytest.approx(before.bilap * mu**3, rel=1e-12)
        assert after.lp == pytest.approx(before.lp / mu, rel=1e-12)


class TestLambdaNormalize:
    def test_unit_output(self):
        g = BoxGrid(1, 512, 40.0)
        v = lambda_normalize(gaussian_bump(g))
        _, grad, bilap = quadratic_norms(v)
        assert abs(grad - 1.0) < 1e-12
        assert abs(bilap - 1.0) < 1e-12

    def test_weinstein_preserved(self):
        from bnls.functionals import weinstein

        g = BoxGrid(1, 512, 40.0)
        u = gaussian_bump(g, width=2.5, amplitude=1.3)
        before = weinstein(norms(u, PM.p), PM)
        after = weinstein(norms(lambda_normalize(u), PM.p), PM)
        assert after == pytest.approx(before, rel=1e-12)

    def test_already_normalized_unchanged(self):
        g = BoxGrid(1, 512, 40.0)
        v = lambda_normalize(gaussian_bump(g))
        again = lambda_normalize(v)
        assert again.grid.box_length == pytest.approx(v.grid.box_length, rel=1e-12)
        np.testing.assert_allclose(again.samples, v.samples, rtol=1e-10, atol=1e-14)

    def test_degenerate_rejected(self):
        g = BoxGrid(1, 64, 10.0)
        with pytest.raises(PreconditionError):
            lambda_normalize(Field(g, np.full(64, 1.0)))


class TestConstructQ:
    def normalized_bump(self, dim=1, m=512, box=40.0):
        g = BoxGrid(dim, m, box)
        return lambda_normalize(gaussian_bump(g))

    def test_formulas_n1_p8(self):
        # alpha = beta = 1: mu = eps^(-1/2), lam = (8/(eps lp))^(1/6),
        # and Q's frequency omega_formula = 6 / (eps mass)
        v = self.normalized_bump()
        nt = norms(v, 8.0)
        for eps in (1.0, 0.25, 4.0):
            pm = Params(bigN=1, p=8.0, eps=eps)
            q, _ = construct_Q(v, nt, pm)
            assert omega_formula(nt.mass, pm) == pytest.approx(6.0 / (eps * nt.mass), rel=1e-12)
            mu = eps**-0.5
            assert q.grid.box_length == pytest.approx(v.grid.box_length / mu, rel=1e-12)
            lam = (8.0 / (eps * nt.lp)) ** (1.0 / 6.0)
            np.testing.assert_allclose(q.samples, lam * v.samples, rtol=1e-12)

    def test_mu_one_when_eps_matches_exponent_ratio(self):
        v = self.normalized_bump()
        pm = Params(bigN=1, p=8.0, eps=1.0)  # alpha/beta = 1 here
        # v's tuple with grad = bilap = 1 exactly, so only mu could move the box
        unit = replace(norms(v, 8.0), grad=1.0, bilap=1.0)
        q, _ = construct_Q(v, unit, pm)
        assert q.grid.box_length == v.grid.box_length

    def test_formulas_n2_p5(self):
        v = self.normalized_bump(dim=2, m=64, box=20.0)
        nt = norms(v, 5.0)
        pm = Params(bigN=2, p=5.0, eps=1.0)
        assert omega_formula(nt.mass, pm) == pytest.approx(3.0 / nt.mass, rel=1e-12)

    @pytest.mark.parametrize(
        "dim, m, box, p", [(1, 512, 40.0, 8.0), (2, 64, 20.0, 5.0), (3, 32, 16.0, 3.5)]
    )
    def test_any_optimizer_scale_gives_the_same_state(self, dim, m, box, p):
        # construct_Q takes the optimizer at any amplitude and dilation: from
        # an unnormalized u it builds Q = construct_Q(lambda_normalize(u)) and
        # returns Q's measured norms by the exact laws
        u = gaussian_bump(BoxGrid(dim, m, box), width=box / 8.0, amplitude=1.7)
        v = lambda_normalize(u)
        pm = Params(bigN=dim, p=p, eps=1.0)
        q, nt = construct_Q(u, norms(u, p), pm)
        ref, ref_nt = construct_Q(v, norms(v, p), pm)
        assert q.grid.box_length == pytest.approx(ref.grid.box_length, rel=1e-12)
        np.testing.assert_allclose(q.samples, ref.samples, rtol=1e-12)
        assert nt.mass == pytest.approx(ref_nt.mass, rel=1e-12)
        measured = norms(q, p)
        for name in ("mass", "grad", "bilap", "lp"):
            assert getattr(nt, name) == pytest.approx(getattr(measured, name), rel=1e-12)

    @pytest.mark.parametrize("name", ["mass", "grad", "bilap", "lp"])
    def test_degenerate_norms_refused(self, name):
        v = self.normalized_bump()
        nt = replace(norms(v, 8.0), **{name: 0.0})
        with pytest.raises(PreconditionError):
            construct_Q(v, nt, Params(bigN=1, p=8.0, eps=1.0))


class TestHProfile:
    def test_t_eps_plugin_unity(self):
        # choose lp so (alpha/p) lp / (eps bilap) = 1
        nt = NormTuple(mass=1.0, grad=1.0, bilap=1.0, lp=8.0, p=8.0)
        assert t_eps(nt, PM) == pytest.approx(1.0, rel=1e-12)

    def test_doubling_lp_scales_t(self):
        nt = NormTuple(mass=1.0, grad=1.0, bilap=1.0, lp=8.0, p=8.0)
        doubled = NormTuple(mass=1.0, grad=1.0, bilap=1.0, lp=16.0, p=8.0)
        ratio = t_eps(doubled, PM) / t_eps(nt, PM)
        assert ratio == pytest.approx(2.0 ** (2.0 / (8.0 - 6.0)), rel=1e-12)

    @given(st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0.2, 5.0))
    @settings(max_examples=40)
    def test_critical_point_by_finite_difference(self, bilap, grad, lp):
        from hypothesis import assume

        nt = NormTuple(mass=1.0, grad=grad, bilap=bilap, lp=lp, p=8.0)
        ts = t_eps(nt, PM)
        # the centered difference is ill-conditioned for extreme t
        assume(0.3 < ts < 3.0)
        # normalize by the magnitude of the two derivative terms that cancel
        scale = 2.0 * PM.eps * ts * nt.bilap
        best = min(
            abs(hi - lo) / (2.0 * frac * ts)
            for frac in (1e-3, 1e-4, 1e-5)
            for (_, lo), (_, hi) in [h_profile(nt, PM, [ts * (1 - frac), ts * (1 + frac)])]
        )
        assert best / scale < 1e-10

    @given(st.floats(0.05, 20.0), st.floats(0.05, 20.0), st.floats(0.05, 20.0))
    @settings(max_examples=60)
    def test_critical_point_analytic_derivative(self, bilap, grad, lp):
        # h'(t) = eps t bilap - (alpha/p) t^(alpha-1) lp vanishes at t_eps
        nt = NormTuple(mass=1.0, grad=grad, bilap=bilap, lp=lp, p=8.0)
        ts = t_eps(nt, PM)
        ep = PM.exponents()
        deriv = PM.eps * ts * nt.bilap - ep.alpha / PM.p * ts ** (ep.alpha - 1.0) * nt.lp
        assert abs(deriv) / (PM.eps * ts * nt.bilap) < 1e-12

    def test_profile_values(self):
        nt = NormTuple(mass=1.0, grad=2.0, bilap=3.0, lp=4.0, p=8.0)
        [(t, h)] = h_profile(nt, PM, [2.0])
        # eps t^2/2 b + g/2 - t^alpha / p lp with alpha = 1
        assert h == pytest.approx(0.5 * 4 * 3 + 1.0 - 2.0 / 8.0 * 4.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(PreconditionError):
            t_eps(NormTuple(mass=1, grad=1, bilap=0.0, lp=1, p=8.0), PM)
        with pytest.raises(ValueError):
            h_profile(NT, PM, [0.0])


class TestGFunctions:
    def test_zero_at_one(self):
        for n, p in ((1, 8.0), (2, 5.0), (3, 4.0)):
            assert g_functions(1.0, n, p) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    def test_arithmetic_examples(self):
        g1, g2, g3 = g_functions(2.0, 1, 8.0)
        assert g1 == pytest.approx(2 - 5 * 8 + 3 * 32)  # 58
        assert g2 == pytest.approx(4 - 5 * 2 + 1 * 32)  # 26
        assert g3 == pytest.approx(2 - 7 * 32 + 5 * 128)  # 418

    @given(
        st.floats(0.01, 100.0),
        st.integers(1, 3),
        st.floats(0.05, 0.95),
    )
    @settings(max_examples=300)
    def test_nonnegative(self, t, n, frac):
        p = (2 + 4.0 / n) + frac * 4.0 / n
        for g in g_functions(t, n, p):
            assert g >= -1e-12

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            g_functions(0.0, 1, 8.0)


class TestFiberActionInequality:
    @given(st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0.1, 5.0))
    @settings(max_examples=60)
    def test_gap_decomposition_and_maximality(self, grad, bilap, omega):
        pm = Params(bigN=1, p=8.0, eps=1.0, omega=omega)
        nt = make_solution_tuple(grad, bilap, pm)
        scale = quadratic_scale(nt, pm)
        # sanity: both identities hold by construction
        assert abs(nehari_residual(nt, pm)) / scale < 1e-12
        assert abs(pohozaev(nt, pm)) / scale < 1e-12
        base = action(nt, pm)
        for t in fiber_t_grid():
            gap = base - action(fiber_scale_laws(nt, t, pm), pm)
            assert gap >= -1e-12 * scale
            terms = action_gap_decomposition(nt, pm, t)
            assert abs(gap - sum(terms)) / scale < 1e-12
            if abs(t - 1.0) > 0.05:
                assert gap > 0.0

    def test_grid_contains_one(self):
        grid = fiber_t_grid()
        assert 1.0 in grid
        assert grid[0] == pytest.approx(0.25)
        assert grid[-1] == pytest.approx(4.0)
