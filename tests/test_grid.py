import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnls import grid as grid_module
from bnls.errors import InvalidFieldError
from bnls.functionals import Params
from bnls.grid import (
    BoxGrid,
    Field,
    bilaplacian,
    boundary_amplitude_ratio,
    center_and_align,
    laplacian,
    norms,
    quadratic_norms,
    regrid,
    relative_l2_distance,
    shift_field,
)
from bnls.solvers import _finish, _SpectralIterate, random_bandlimited

from conftest import rng_fields

GRID = BoxGrid(dim=1, points_per_axis=256, box_length=2.0 * np.pi)


def sine(k=3, grid=GRID):
    return Field(grid, np.sin(k * grid.axis_coordinates()))


def bump(width=2.0, grid=None):
    grid = grid or BoxGrid(1, 256, 40.0)
    x = grid.axis_coordinates()
    return Field(grid, np.exp(-(x**2) / (2.0 * width**2)))


class TestBoxGrid:
    def test_spacing_and_shape(self):
        assert GRID.spacing == pytest.approx(2 * np.pi / 256)
        assert GRID.shape == (256,)
        assert GRID.cell_volume == GRID.spacing

    @pytest.mark.parametrize("bad", [31, 33, 100, 0, -64])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(ValueError):
            BoxGrid(1, bad, 1.0)

    def test_rejects_bad_dim_and_box(self):
        with pytest.raises(ValueError):
            BoxGrid(4, 64, 1.0)
        with pytest.raises(ValueError):
            BoxGrid(1, 64, 0.0)
        with pytest.raises(ValueError):
            BoxGrid(1, 64, -3.0)

    def test_wavenumbers_even_except_nyquist(self):
        k = GRID.wavenumbers()
        m = GRID.points_per_axis
        for j in range(1, m // 2):
            assert k[j] == -k[m - j]
        # Nyquist index has no positive partner
        assert k[m // 2] == pytest.approx(-GRID.k_max())
        # the half-spectrum axis is the full axis's nonnegative part, bit for bit
        half = GRID.wavenumbers(half=True)
        assert np.array_equal(half, np.append(k[: m // 2], -k[m // 2]))


class TestField:
    def test_rejects_nan(self):
        samples = np.zeros(256)
        samples[3] = np.nan
        with pytest.raises(InvalidFieldError):
            Field(GRID, samples)

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidFieldError):
            Field(GRID, np.zeros(255))

    def test_accepts_flat_row_major(self):
        g2 = BoxGrid(2, 32, 1.0)
        flat = np.arange(32 * 32, dtype=float)
        f = Field(g2, flat)
        assert f.samples.shape == (32, 32)
        assert f.samples[1, 0] == 32.0

    def test_samples_immutable(self):
        f = sine()
        with pytest.raises(ValueError):
            f.samples[0] = 1.0


class TestNorms:
    def test_sine_exact(self):
        # analytic integrals on [0, 2pi): sin^2 -> pi, (3cos3x)^2 -> 9pi,
        # (9sin3x)^2 -> 81pi, sin^4 -> 3pi/4
        nt = norms(sine(3), 4.0)
        assert nt.mass == pytest.approx(np.pi, rel=1e-12)
        assert nt.grad == pytest.approx(9 * np.pi, rel=1e-12)
        assert nt.bilap == pytest.approx(81 * np.pi, rel=1e-12)
        assert nt.lp == pytest.approx(3 * np.pi / 4, rel=1e-12)

    def test_zero_field(self):
        nt = norms(Field(GRID, np.zeros(256)), 4.0)
        assert (nt.mass, nt.grad, nt.bilap, nt.lp) == (0.0, 0.0, 0.0, 0.0)

    def test_constant_field(self):
        c = -0.7
        nt = norms(Field(GRID, np.full(256, c)), 5.0)
        length = 2 * np.pi
        assert nt.mass == pytest.approx(length * c**2, rel=1e-12)
        assert nt.grad == 0.0
        assert nt.bilap == 0.0
        assert nt.lp == pytest.approx(length * abs(c) ** 5, rel=1e-12)

    def test_requires_p_above_two(self):
        with pytest.raises(ValueError):
            norms(sine(), 2.0)

    def test_3d_product_of_sines(self):
        g = BoxGrid(3, 32, 2.0 * np.pi)
        x, y, z = g.coordinates()
        u = Field(g, np.sin(3 * x) * np.sin(2 * y) * np.sin(z))
        nt = norms(u, 4.0)
        pi3 = np.pi**3
        assert nt.mass == pytest.approx(pi3, rel=1e-12)
        assert nt.grad == pytest.approx(14 * pi3, rel=1e-12)
        assert nt.bilap == pytest.approx(196 * pi3, rel=1e-12)
        assert nt.lp == pytest.approx((3 * np.pi / 4) ** 3, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 5, 11, 17, 31])
    def test_eigenfunction_multiplier_scaling(self, k):
        # grad and bilap of a pure mode scale exactly like k^2 and k^4
        nt = norms(sine(k), 4.0)
        assert nt.grad == pytest.approx(k**2 * nt.mass, rel=1e-12)
        assert nt.bilap == pytest.approx(k**4 * nt.mass, rel=1e-12)

    def test_parseval_consistency(self):
        # the spectral mass of norms and of the iterate, one field or a batch,
        # equals the physical quadrature mass
        g = BoxGrid(1, 64, 40.0)
        fields = rng_fields(g, 50, seed=100)
        batch = _SpectralIterate(fields)
        masses = batch.spec_norm_sq(batch.spec).ravel()
        for u, batch_mass in zip(fields, masses):
            quadrature = g.cell_volume * float(np.sum(u.samples**2))
            lone = _SpectralIterate(u)
            assert lone.spec_norm_sq(lone.spec) == pytest.approx(quadrature, rel=1e-12)
            assert batch_mass == pytest.approx(quadrature, rel=1e-12)
            assert norms(u, 4.0).mass == pytest.approx(quadrature, rel=1e-12)

    def test_interpolation_inequality_500_fields(self):
        g = BoxGrid(1, 64, 40.0)
        for u in rng_fields(g, 500, seed=2000):
            mass, grad, bilap = quadratic_norms(u)
            assert grad**2 <= mass * bilap * (1 + 1e-12)


class TestTransformPair:
    """grid._rfftn/_irfftn, the one transform path: bit-equal to numpy's n-dimensional pair."""

    @given(
        dim=st.integers(1, 3),
        batch=st.sampled_from([(), (1,), (3,)]),
        m=st.sampled_from([2, 6, 8, 32]),
        supplied=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_equal_to_numpy_and_inputs_untouched(self, dim, batch, m, supplied, seed):
        x = np.random.default_rng(seed).standard_normal(batch + (m,) * dim)
        x_before = x.copy()
        axes = tuple(range(-dim, 0))
        spec_shape = x.shape[:-1] + (m // 2 + 1,)
        out = np.empty(spec_shape, dtype=complex) if supplied else None
        spec = grid_module._rfftn(x, dim, out=out)
        assert spec.tobytes() == np.fft.rfftn(x, axes=axes).tobytes()
        assert x.tobytes() == x_before.tobytes()
        assert out is None or spec is out

        spec_before = spec.copy()
        work = np.empty_like(spec) if supplied else None
        real = np.empty(x.shape) if supplied else None
        back = grid_module._irfftn(spec, dim, work, out=real)
        expected = np.fft.irfftn(spec_before, s=(m,) * dim, axes=axes)
        assert back.shape == x.shape
        assert back.tobytes() == expected.tobytes()
        assert spec.tobytes() == spec_before.tobytes()
        assert real is None or back is real

    @given(
        dim=st.integers(1, 3),
        batch=st.sampled_from([(), (1,), (3,)]),
        m=st.sampled_from([2, 6, 8, 32]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_work_aliasing_spec_bit_equal_to_numpy(self, dim, batch, m, seed):
        # random_bandlimited_blocks hands the spectrum in as its own work array
        x = np.random.default_rng(seed).standard_normal(batch + (m,) * dim)
        axes = tuple(range(-dim, 0))
        spec = grid_module._rfftn(x, dim)
        expected = np.fft.irfftn(spec, s=(m,) * dim, axes=axes)
        back = grid_module._irfftn(spec, dim, spec, out=np.empty(x.shape))
        assert back.tobytes() == expected.tobytes()


class TestOperators:
    def test_laplacian_eigenfunction(self):
        # strict 1e-12 on a modest grid where Nyquist noise amplification
        # (|k_max|^2 * eps_mach) stays below the bound
        g = BoxGrid(1, 64, 2.0 * np.pi)
        for k in (1, 3, 7):
            u = sine(k, g)
            out = laplacian(u)
            err = np.max(np.abs(out.samples + k**2 * u.samples))
            assert err <= 1e-12 * k**2

    def test_laplacian_eigenfunction_fine_grid(self):
        # on finer grids the error scales with |k_max|^2 * eps_mach
        for k in (1, 3, 17):
            u = sine(k)
            out = laplacian(u)
            err = np.max(np.abs(out.samples + k**2 * u.samples))
            assert err <= 64 * np.finfo(float).eps * GRID.k_max() ** 2

    def test_bilaplacian_constant_is_zero(self):
        out = bilaplacian(Field(GRID, np.full(256, 2.5)))
        assert np.max(np.abs(out.samples)) < 1e-12


class TestCenterAndAlign:
    def test_centered_bump_fixed_point(self):
        u = bump()
        out = center_and_align(u)
        np.testing.assert_allclose(out.samples, u.samples, atol=1e-12)

    def test_shift_invariance_37_cells(self):
        u = bump()
        shifted = Field(u.grid, np.roll(u.samples, 37))
        a = center_and_align(u)
        b = center_and_align(shifted)
        assert np.max(np.abs(a.samples - b.samples)) <= 1e-10

    def test_fractional_shift_recentered(self):
        u = bump()
        nudged = shift_field(u, [0.5 * u.grid.spacing])
        out = center_and_align(nudged)
        assert np.max(np.abs(out.samples - u.samples)) <= 1e-9

    def test_sign_normalization(self):
        u = bump()
        a = center_and_align(u)
        b = center_and_align(Field(u.grid, -u.samples))
        np.testing.assert_allclose(a.samples, b.samples, atol=1e-12)

    def test_zero_field_rejected(self):
        with pytest.raises(InvalidFieldError):
            center_and_align(Field(GRID, np.zeros(256)))

    def test_2d_centering(self):
        g = BoxGrid(2, 64, 20.0)
        x, y = g.coordinates()
        u = Field(g, np.exp(-((x - 1.3) ** 2 + (y + 2.1) ** 2)))
        out = center_and_align(u)
        c = g.points_per_axis // 2
        peak = np.unravel_index(np.argmax(out.samples), out.samples.shape)
        assert peak == (c, c)


class TestShiftField:
    def test_integer_shift_matches_roll(self):
        u = bump()
        out = shift_field(u, [5 * u.grid.spacing])
        np.testing.assert_allclose(out.samples, np.roll(u.samples, -5), atol=1e-12)

    def test_shift_roundtrip(self):
        u = bump()
        out = shift_field(shift_field(u, [0.3]), [-0.3])
        np.testing.assert_allclose(out.samples, u.samples, atol=1e-12)


def dense_regrid(u, target):
    """Reference interpolant: the full exp(i k x) basis, contracted along each axis."""
    g = u.grid
    m = g.points_per_axis
    k = 2.0 * np.pi * np.fft.fftfreq(m, d=g.spacing)
    x = target.axis_coordinates() + g.box_length / 2.0
    basis = 1j * np.outer(x, k)
    np.exp(basis, out=basis)
    basis[:, m // 2] = np.cos(k[m // 2] * x)
    out = np.fft.fftn(u.samples) / g.size
    for axis in range(g.dim):
        out = np.moveaxis(np.tensordot(basis, out, axes=(1, axis)), 0, axis)
    return out.real


class TestRegrid:
    def test_same_grid_identity(self):
        for u in (sine(3), random_bandlimited(BoxGrid(2, 64, 20.0), 4)):
            assert regrid(u, u.grid) is u
            # the interpolant that the identity stands for reproduces the samples
            np.testing.assert_allclose(dense_regrid(u, u.grid), u.samples, atol=1e-12)

    @pytest.mark.parametrize(
        "source, target",
        [
            (BoxGrid(1, 1024, 40.0), BoxGrid(1, 1024, 41.0)),
            (BoxGrid(3, 32, 20.0), BoxGrid(3, 64, 24.0)),
            (BoxGrid(2, 128, 40.0), BoxGrid(2, 128, 41.0)),
            (BoxGrid(1, 512, 20.0), BoxGrid(1, 1024, 24.0)),
            (BoxGrid(1, 4096, 40.0), BoxGrid(1, 4096, 40.00000000721148)),
            (BoxGrid(3, 64, 32.0), BoxGrid(3, 64, 32.0000000001)),
        ],
        ids=[
            "1d-box41", "3d-refine-enlarge", "2d-box41", "1d-refine-enlarge", "1d-4096-nearby",
            "3d-64-nearby",
        ],
    )
    def test_chirp_z_matches_dense(self, source, target):
        u = random_bandlimited(source, 7)
        out = regrid(u, target)
        assert out.grid == target
        np.testing.assert_allclose(out.samples, dense_regrid(u, target), rtol=0, atol=1e-13)

    def test_white_noise_matches_dense(self):
        # content up to the Nyquist mode, whose term is the cosine on every axis
        source, target = BoxGrid(2, 32, 10.0), BoxGrid(2, 64, 10.5)
        u = Field(source, np.random.default_rng(3).standard_normal(source.shape))
        out = regrid(u, target)
        np.testing.assert_allclose(out.samples, dense_regrid(u, target), rtol=0, atol=1e-13)

    def test_roundoff_box_matches_dense(self):
        # route_Q's state sits on a box that differs from the grid's by roundoff
        source, target = BoxGrid(1, 1024, 40.0), BoxGrid(1, 1024, 40.00000000104746)
        u = random_bandlimited(source, 7)
        out = regrid(u, target)
        np.testing.assert_allclose(out.samples, dense_regrid(u, target), rtol=0, atol=1e-13)

    def test_long_axis_stays_at_roundoff(self):
        # the chirps' phases reach 17,000 half turns here; taken modulo 2 before
        # rounding they keep the error at 1e-15 (rounded as they stand: 3e-13)
        source, target = BoxGrid(1, 16384, 40.0), BoxGrid(1, 16384, 41.0)
        u = Field(source, np.exp(-source.axis_coordinates() ** 2 / 8.0))
        out = regrid(u, target)
        expected = np.exp(-target.axis_coordinates() ** 2 / 8.0)
        np.testing.assert_allclose(out.samples, expected, rtol=0, atol=5e-15)

    def test_refine_bandlimited_exact(self):
        fine = BoxGrid(1, 512, 2.0 * np.pi)
        out = regrid(sine(3), fine)
        np.testing.assert_allclose(out.samples, np.sin(3 * fine.axis_coordinates()), atol=1e-11)

    def test_bigger_box_for_decaying_bump(self):
        # narrow enough that the periodic wrap onto the larger box is invisible
        u = bump(width=1.2)
        target = BoxGrid(1, 512, 60.0)
        out = regrid(u, target)
        x = target.axis_coordinates()
        np.testing.assert_allclose(out.samples, np.exp(-(x**2) / 2.88), atol=1e-10)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            regrid(sine(), BoxGrid(2, 32, 1.0))

    def test_nearby_box_peak_memory(self):
        # the verify case: a chirp-z pass holds a few 2048-point arrays, about
        # 0.22 MB traced (numpy 2.4); one 128 x 1024 complex table of the dense
        # basis alone is 2 MiB
        u = random_bandlimited(BoxGrid(1, 1024, 40.0), 7)
        target = BoxGrid(1, 1024, 40.00000000721148)
        tracemalloc.start()
        try:
            regrid(u, target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 262_144


class TestBoxAdequacy:
    def test_ratio_of_centered_bump_small(self):
        assert boundary_amplitude_ratio(bump(width=2.0)) < 1e-8

    # a solve's state records the boundary warning
    def test_warning_raised_for_wide_field(self):
        wide = _finish(bump(width=15.0), Params(bigN=1, p=8.0, eps=1.0), [0.0], "test")
        assert any(w.startswith("boundary amplitude") for w in wide.warnings)

    def test_no_warning_for_narrow_field(self):
        narrow = _finish(bump(width=2.0), Params(bigN=1, p=8.0, eps=1.0), [0.0], "test")
        assert not any(w.startswith("boundary amplitude") for w in narrow.warnings)


def test_relative_l2_distance():
    u = bump()
    v = Field(u.grid, 1.001 * u.samples)
    assert relative_l2_distance(u, v) == pytest.approx(0.001 / 1.001, rel=1e-6)
    assert relative_l2_distance(u, u) == 0.0
    with pytest.raises(ValueError):
        relative_l2_distance(u, sine())
