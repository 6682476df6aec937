import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnls.errors import (
    ConfigurationError,
    DegenerateQuotientError,
    PreconditionError,
    RegimeError,
)
from bnls.functionals import (
    ExponentPack,
    Params,
    action,
    energy,
    energy_factored,
    gn_k_quotient,
    holder_chain_gap,
    nehari_residual,
    pohozaev,
    quadratic_scale,
    weinstein,
)
from bnls.grid import BoxGrid, Field, NormTuple, norms
from bnls.scalings import mass_preserving_scale_laws

from conftest import rng_fields


@st.composite
def regime_params(draw, with_omega=False):
    n = draw(st.integers(1, 3))
    lo, hi = 2.0 + 4.0 / n, 2.0 + 8.0 / n
    width = hi - lo
    p = draw(st.floats(lo + 0.05 * width, hi - 0.05 * width))
    eps = draw(st.floats(0.05, 20.0))
    omega = draw(st.floats(0.05, 10.0)) if with_omega else None
    return Params(bigN=n, p=p, eps=eps, omega=omega)


@st.composite
def positive_tuples(draw, p):
    vals = [draw(st.floats(1e-3, 1e3)) for _ in range(4)]
    return NormTuple(mass=vals[0], grad=vals[1], bilap=vals[2], lp=vals[3], p=p)


class TestParams:
    def test_window_boundaries_rejected(self):
        with pytest.raises(RegimeError):
            Params(bigN=1, p=6.0, eps=1.0)
        with pytest.raises(RegimeError):
            Params(bigN=1, p=10.0, eps=1.0)
        with pytest.raises(RegimeError):
            Params(bigN=1, p=6.0 + 1e-10, eps=1.0)  # inside the guard margin
        with pytest.raises(RegimeError):
            Params(bigN=2, p=4.0, eps=1.0)

    def test_valid_construction(self):
        pm = Params(bigN=1, p=8.0, eps=1.0)
        assert pm.mass_window() == (6.0, 10.0)
        with pytest.raises(ConfigurationError):
            pm.require_omega()
        assert pm.with_omega(2.0).require_omega() == 2.0
        assert pm.with_mass(1.5).require_mass() == 1.5

    def test_eps_must_be_positive_in_regime(self):
        with pytest.raises(RegimeError):
            Params(bigN=1, p=8.0, eps=0.0)
        with pytest.raises(RegimeError):
            Params(bigN=1, p=8.0, eps=-1.0)

    def test_relaxed_mode_allows_oracle_setup(self):
        pm = Params(bigN=1, p=8.0, eps=0.0, omega=1.0, relaxed=True)
        assert pm.eps == 0.0
        # the exponent pack still guards its own regime
        Params(bigN=1, p=5.0, eps=0.0, relaxed=True)
        with pytest.raises(RegimeError):
            Params(bigN=1, p=5.0, eps=0.0, relaxed=True).exponents()

    def test_sobolev_critical_bound(self):
        with pytest.raises(RegimeError):
            Params(bigN=5, p=11.0, eps=1.0, relaxed=True)

    def test_negative_mass_rejected(self):
        with pytest.raises(RegimeError):
            Params(bigN=1, p=8.0, eps=1.0, mass_c=-2.0)


class TestExponentPack:
    def test_known_values(self):
        ep = ExponentPack.from_problem(1, 8.0)
        assert (ep.alpha, ep.beta) == (1.0, 1.0)
        ep2 = ExponentPack.from_problem(2, 5.0)
        assert (ep2.alpha, ep2.beta) == (1.0, 1.0)
        ep3 = ExponentPack.from_problem(3, 4.0)
        assert ep3.alpha == pytest.approx(1.0)
        assert ep3.beta == pytest.approx(1.0)

    @given(regime_params())
    def test_positive_and_sum_two(self, pm):
        ep = pm.exponents()
        assert ep.alpha > 0 and ep.beta > 0
        assert ep.alpha + ep.beta == pytest.approx(2.0, abs=1e-12)


class TestEnergyAction:
    def test_energy_zero_derivatives(self):
        nt = NormTuple(mass=3.0, grad=0.0, bilap=0.0, lp=0.0, p=4.0)
        assert energy(nt, Params(bigN=1, p=4.0, eps=1.0, relaxed=True)) == 0.0

    def test_energy_arithmetic(self):
        nt = NormTuple(mass=1.0, grad=2.0, bilap=4.0, lp=8.0, p=4.0)
        pm = Params(bigN=1, p=4.0, eps=1.0, relaxed=True)
        assert energy(nt, pm) == pytest.approx(1.0)

    def test_action_is_energy_at_zero_omega(self):
        nt = NormTuple(mass=1.7, grad=2.0, bilap=4.0, lp=8.0, p=4.0)
        pm = Params(bigN=1, p=4.0, eps=1.0, omega=0.0, relaxed=True)
        assert action(nt, pm) == energy(nt, pm)

    def test_action_arithmetic(self):
        nt = NormTuple(mass=2.0, grad=2.0, bilap=4.0, lp=8.0, p=4.0)
        pm = Params(bigN=1, p=4.0, eps=1.0, omega=1.0, relaxed=True)
        assert action(nt, pm) == pytest.approx(2.0)

    def test_action_requires_omega(self):
        nt = NormTuple(mass=2.0, grad=2.0, bilap=4.0, lp=8.0, p=8.0)
        with pytest.raises(ConfigurationError):
            action(nt, Params(bigN=1, p=8.0, eps=1.0))

    def test_p_mismatch_rejected(self):
        nt = NormTuple(mass=1.0, grad=1.0, bilap=1.0, lp=1.0, p=7.0)
        with pytest.raises(PreconditionError):
            energy(nt, Params(bigN=1, p=8.0, eps=1.0))


class TestConstraintResiduals:
    def test_nehari_zero_field(self):
        nt = NormTuple(mass=0.0, grad=0.0, bilap=0.0, lp=0.0, p=8.0)
        pm = Params(bigN=1, p=8.0, eps=1.0, omega=1.0)
        assert nehari_residual(nt, pm) == 0.0

    def test_nehari_arithmetic(self):
        nt = NormTuple(mass=1.0, grad=1.0, bilap=1.0, lp=3.0, p=8.0)
        pm = Params(bigN=1, p=8.0, eps=1.0, omega=1.0)
        assert nehari_residual(nt, pm) == pytest.approx(0.0)

    def test_pohozaev_zero_field(self):
        nt = NormTuple(mass=0.0, grad=0.0, bilap=0.0, lp=0.0, p=8.0)
        pm = Params(bigN=1, p=8.0, eps=1.0, omega=1.0)
        assert pohozaev(nt, pm) == 0.0

    def test_pohozaev_arithmetic(self):
        # eps (N-4)/2 b + (N-2)/2 g + omega N/2 m - (N/p) lp
        # = (-3/2)*2 + (-1/2)*2 + (1/2)*2 - (1/8)*8 = -4
        nt = NormTuple(mass=2.0, grad=2.0, bilap=2.0, lp=8.0, p=8.0)
        pm = Params(bigN=1, p=8.0, eps=1.0, omega=1.0)
        assert pohozaev(nt, pm) == pytest.approx(-4.0)

    @given(regime_params(with_omega=True), st.data())
    @settings(max_examples=60)
    def test_combination_identity(self, pm, data):
        # N * nehari - pohozaev equals the displayed positive combination
        nt = data.draw(positive_tuples(pm.p))
        n, p = pm.bigN, pm.p
        combo = n * nehari_residual(nt, pm) - pohozaev(nt, pm)
        direct = (
            pm.eps * (n + 4) / 2 * nt.bilap
            + (n + 2) / 2 * nt.grad
            + pm.omega * n / 2 * nt.mass
            - n * (p - 1) / p * nt.lp
        )
        scale = quadratic_scale(nt, pm) + nt.lp
        assert abs(combo - direct) / scale < 1e-12


class TestWeinstein:
    def test_unit_derivative_norms(self):
        pm = Params(bigN=1, p=8.0, eps=1.0)
        nt = NormTuple(mass=4.0, grad=1.0, bilap=1.0, lp=5.0, p=8.0)
        assert weinstein(nt, pm) == pytest.approx(4.0**3 / 5.0)

    def test_undefined_for_zero_lp(self):
        pm = Params(bigN=1, p=8.0, eps=1.0)
        nt = NormTuple(mass=1.0, grad=1.0, bilap=1.0, lp=0.0, p=8.0)
        with pytest.raises(DegenerateQuotientError):
            weinstein(nt, pm)

    @given(regime_params(), st.floats(0.1, 10.0), st.data())
    @settings(max_examples=60)
    def test_invariant_under_mass_preserving_rescale(self, pm, t, data):
        nt = data.draw(positive_tuples(pm.p))
        w0 = weinstein(nt, pm)
        w1 = weinstein(mass_preserving_scale_laws(nt, t, pm), pm)
        assert w1 == pytest.approx(w0, rel=1e-12)

    def test_gaussian_against_analytic_integrals(self):
        # closed-form Gaussian integrals give W_p(e^{-x^2}) = 2 sqrt(3) (pi/2)^(3/2)
        # for N = 1, p = 8; the quadrature path must match at two resolutions.
        expected = 2.0 * math.sqrt(3.0) * (math.pi / 2.0) ** 1.5
        pm = Params(bigN=1, p=8.0, eps=1.0)
        values = []
        for m, box in ((512, 30.0), (1024, 40.0)):
            g = BoxGrid(1, m, box)
            x = g.axis_coordinates()
            nt = norms(Field(g, np.exp(-(x**2))), 8.0)
            values.append(weinstein(nt, pm))
        assert values[0] == pytest.approx(expected, rel=1e-12)
        assert values[1] == pytest.approx(expected, rel=1e-12)
        assert values[0] == pytest.approx(values[1], rel=1e-10)


class TestGnKQuotient:
    @given(regime_params(), st.floats(0.05, 20.0), st.data())
    @settings(max_examples=60)
    def test_amplitude_invariance(self, pm, s, data):
        nt = data.draw(positive_tuples(pm.p))
        scaled = NormTuple(
            mass=s**2 * nt.mass,
            grad=s**2 * nt.grad,
            bilap=s**2 * nt.bilap,
            lp=s**pm.p * nt.lp,
            p=pm.p,
        )
        assert gn_k_quotient(scaled, pm) == pytest.approx(gn_k_quotient(nt, pm), rel=1e-12)

    def test_undefined_for_zero_denominator(self):
        pm = Params(bigN=1, p=8.0, eps=1.0)
        nt = NormTuple(mass=0.0, grad=0.0, bilap=0.0, lp=1.0, p=8.0)
        with pytest.raises(DegenerateQuotientError):
            gn_k_quotient(nt, pm)


class TestEnergyFactored:
    @given(regime_params(), st.data())
    @settings(max_examples=60)
    def test_reconstruction_identity(self, pm, data):
        nt = data.draw(positive_tuples(pm.p))
        pmc = pm.with_mass(nt.mass)
        qd, bracket = energy_factored(nt, pmc)
        scale = quadratic_scale(nt, pmc) + nt.lp
        assert abs(0.5 * qd * bracket - energy(nt, pmc)) / scale < 1e-12

    def test_mass_mismatch_rejected(self):
        pm = Params(bigN=1, p=8.0, eps=1.0, mass_c=2.0)
        nt = NormTuple(mass=1.0, grad=1.0, bilap=1.0, lp=1.0, p=8.0)
        with pytest.raises(PreconditionError):
            energy_factored(nt, pm)

    def test_positive_bracket_means_positive_energy(self):
        pm = Params(bigN=1, p=8.0, eps=1.0)
        nt = NormTuple(mass=1.0, grad=1.0, bilap=1.0, lp=1e-3, p=8.0)
        qd, bracket = energy_factored(nt, pm.with_mass(nt.mass))
        assert bracket > 0
        assert energy(nt, pm) > 0


class TestHolderChain:
    def test_500_random_fields(self):
        pm = Params(bigN=1, p=8.0, eps=1.0)
        g = BoxGrid(1, 64, 40.0)
        for u in rng_fields(g, 500, seed=31):
            nt = norms(u, pm.p)
            if nt.lp == 0:
                continue
            vol = g.cell_volume
            low = vol * float(np.sum(np.abs(u.samples) ** 6.0))
            high = vol * float(np.sum(np.abs(u.samples) ** 10.0))
            assert holder_chain_gap(nt, pm, low, high) >= -1e-14


class TestPerFieldArrays:
    """weinstein, gn_k_quotient and holder_chain_gap over a NormTuple of per-field
    arrays, as the GN sampler takes them a block at a time."""

    @pytest.mark.parametrize(
        "pm, grid, modes",
        [
            (Params(bigN=1, p=8.0, eps=1.0), BoxGrid(1, 256, 40.0), 20),
            (Params(bigN=2, p=5.0, eps=1.0), BoxGrid(2, 64, 40.0), 5),
        ],
        ids=["1d", "2d"],
    )
    def test_rows_match_scalar_calls(self, pm, grid, modes):
        # not bit-equal: numpy's vector pow differs from libm's pow by an ulp
        # on a fraction of inputs, so each row is held to 1e-14
        from bnls.grid import norm_sums
        from bnls.solvers import random_bandlimited_blocks

        n = pm.bigN
        (block,) = random_bandlimited_blocks(grid, 7, 100, modes)
        sums = norm_sums(grid, block, (pm.p, 2.0 + 4.0 / n, 2.0 + 8.0 / n))
        mass, grad, bilap, lp, low, high = sums
        nt = NormTuple(mass=mass, grad=grad, bilap=bilap, lp=lp, p=pm.p)
        w = weinstein(nt, pm)
        k = gn_k_quotient(nt, pm)
        gap = holder_chain_gap(nt, pm, low, high)
        assert w.shape == k.shape == gap.shape == (100,)
        for i, row in enumerate(zip(*(s.tolist() for s in sums))):
            row_nt = NormTuple(*row[:4], p=pm.p)
            assert w[i] == pytest.approx(weinstein(row_nt, pm), rel=1e-14, abs=0)
            assert k[i] == pytest.approx(gn_k_quotient(row_nt, pm), rel=1e-14, abs=0)
            scalar_gap = holder_chain_gap(row_nt, pm, *row[4:])
            assert gap[i] == pytest.approx(scalar_gap, rel=1e-14, abs=1e-16)

    def test_guards(self):
        pm = Params(bigN=1, p=8.0, eps=1.0)
        one = np.ones(3)
        lp = np.array([1.0, 0.0, 1.0])
        with pytest.raises(DegenerateQuotientError):
            weinstein(NormTuple(mass=one, grad=one, bilap=one, lp=lp, p=8.0), pm)
        zero_quad = np.array([1.0, 1.0, 0.0])
        with pytest.raises(DegenerateQuotientError):
            gn_k_quotient(NormTuple(mass=one, grad=zero_quad, bilap=zero_quad, lp=one, p=8.0), pm)
        # a vanishing bound gives slack 0, row by row as for one field
        nt = NormTuple(mass=one, grad=one, bilap=one, lp=np.array([0.5, 0.0, 1.0]), p=8.0)
        bound = np.array([1.0, 0.0, 1.0])
        gap = holder_chain_gap(nt, pm, bound, bound)
        assert gap.tolist() == [0.5, 0.0, 0.0]
        assert holder_chain_gap(NormTuple(1.0, 1.0, 1.0, 0.0, 8.0), pm, 0.0, 0.0) == 0.0
