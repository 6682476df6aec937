"""Uniform periodic grids, spectral operators, and the norms behind every functional.

The box [-L/2, L/2)^d is the computational stand-in for all of R^d: fields of
interest decay fast enough that the periodic wrap is negligible, and a warning
is raised when it is not (see :func:`check_box_adequacy`).

Transform conventions: the forward real FFT is unnormalized and the inverse
carries the 1/M^d factor (numpy's default "backward" norm).  Physical-space
sums are weighted by the cell volume h^d, so Parseval reads

    h^d * sum(u**2) == (h^d / M^d) * sum(w * |rfftn(u)|**2)

where w doubles the interior modes of the half-spectrum axis.  The derivative
seminorms are the same spectral sums weighted by |k|^2 and |k|^4, with the
full symmetric wavenumber (including Nyquist) entering the even symbols.

Every real transform runs through one pair, :func:`_rfftn` and :func:`_irfftn`.
They do numpy's n-dimensional real transforms as one-axis passes written in
place: the forward pass is one ``rfft`` on the last axis into the output
array, then a complex ``fft`` over each other axis in that same array; the
inverse runs the complex ``ifft`` passes in a caller-supplied work array and
ends with one ``irfft`` into the output.  The passes are the ones
``numpy.fft.rfftn``/``irfftn`` run, in the same order, so the results are
bit-equal to theirs, but no pass allocates an intermediate array.  An
iteration that hands in its own output and work arrays therefore transforms
without fresh memory: large temporaries go back to the operating system when
freed, so allocating them anew each sweep pays page faults on every page,
which cost more than the arithmetic on 3D grids.  The ``out=`` argument of
``numpy.fft`` needs numpy 2.0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidFieldError, SingularOperatorError

# Fields whose boundary amplitude exceeds this fraction of their peak are
# probably feeling the periodic wrap.
BOUNDARY_WARN_RATIO = 1e-8

# Target rows per block of regrid's dense basis; bounds its temporaries to MiBs.
REGRID_BLOCK = 128


class BoxAdequacyWarning(UserWarning):
    """The field has visible amplitude at the box boundary."""


@dataclass(frozen=True)
class BoxGrid:
    """Uniform periodic grid on [-L/2, L/2)^dim.

    ``points_per_axis`` must be a power of two (>= 32) so transforms stay fast
    and the half-spectrum bookkeeping below is uniform (M is always even).
    """

    dim: int
    points_per_axis: int
    box_length: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        m = self.points_per_axis
        if not isinstance(m, int) or m < 32 or (m & (m - 1)) != 0:
            raise ValueError(f"points_per_axis must be a power of two >= 32, got {m}")
        if not (self.box_length > 0 and np.isfinite(self.box_length)):
            raise ValueError(f"box_length must be positive, got {self.box_length}")

    @property
    def spacing(self) -> float:
        return self.box_length / self.points_per_axis

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis_coordinates(self) -> np.ndarray:
        return -0.5 * self.box_length + self.spacing * np.arange(self.points_per_axis)

    def coordinates(self):
        """Coordinate arrays, one per axis, in 'ij' meshgrid layout."""
        axes = [self.axis_coordinates()] * self.dim
        return np.meshgrid(*axes, indexing="ij")

    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers 2*pi*wrap(m)/L along one full-spectrum axis."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)

    def k_max(self) -> float:
        """Magnitude of the per-axis Nyquist wavenumber, pi/h."""
        return np.pi / self.spacing


@dataclass(frozen=True)
class Field:
    """Real samples on a :class:`BoxGrid`, immutable once constructed."""

    grid: BoxGrid
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.size != self.grid.size:
            raise InvalidFieldError(
                f"expected {self.grid.size} samples for {self.grid.shape}, got {arr.size}"
            )
        arr = arr.reshape(self.grid.shape).copy(order="C")
        if not np.all(np.isfinite(arr)):
            raise InvalidFieldError("field samples must be finite (no NaN/Inf)")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)


@dataclass(frozen=True)
class NormTuple:
    """The four scalars every functional is algebra over.

    mass = ||u||_2^2, grad = ||grad u||_2^2, bilap = ||lap u||_2^2 and
    lp = ||u||_p^p, all for the stated exponent p.
    """

    mass: float
    grad: float
    bilap: float
    lp: float
    p: float

    def as_dict(self) -> dict:
        return {
            "mass": self.mass,
            "grad": self.grad,
            "bilap": self.bilap,
            "lp": self.lp,
            "p": self.p,
        }


@lru_cache(maxsize=64)
def _spectral_tables(grid: BoxGrid):
    """Cached |k|^2 and |k|^4 = k2*k2 arrays and Parseval weights on the rfftn spectrum layout."""
    m = grid.points_per_axis
    k_full = 2.0 * np.pi * np.fft.fftfreq(m, d=grid.spacing)
    k_half = 2.0 * np.pi * np.fft.rfftfreq(m, d=grid.spacing)
    axes = [k_full] * (grid.dim - 1) + [k_half]
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    k2 = np.zeros(np.broadcast_shapes(*(k.shape for k in mesh)))
    for k in mesh:
        k2 += k * k
    k4 = k2 * k2
    # Half-spectrum double counting: interior modes of the last axis stand for
    # a conjugate pair; m=0 and Nyquist do not.
    weight = np.full(k_half.shape, 2.0)
    weight[0] = 1.0
    weight[-1] = 1.0
    weight = weight.reshape((1,) * (grid.dim - 1) + (-1,))
    for table in (k2, k4, weight):
        table.setflags(write=False)
    return k2, k4, weight


def _rfftn(x: np.ndarray, dim: int, out: np.ndarray | None = None) -> np.ndarray:
    """Real-to-complex transform over the last ``dim`` axes of x, bit-equal to
    ``numpy.fft.rfftn(x, axes=range(-dim, 0))``.

    ``out``, when given, receives the spectrum (complex, x's shape with the
    last axis halved plus one); every pass after the first runs in place in it.
    """
    spec = np.fft.rfft(x, axis=-1, out=out)
    for axis in range(-2, -dim - 1, -1):
        np.fft.fft(spec, axis=axis, out=spec)
    return spec


def _irfftn(
    spec: np.ndarray, dim: int, work: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Inverse of :func:`_rfftn` onto an even last axis, bit-equal to
    ``numpy.fft.irfftn(spec, s, axes=range(-dim, 0))``; spec is left unchanged.

    The complex passes run in place in ``work`` (spec's shape and dtype, used
    only when dim > 1); ``out``, when given, receives the real result.
    """
    if dim > 1 and work is None:
        work = np.empty_like(spec)
    src = spec
    for axis in range(-dim, -1):
        src = np.fft.ifft(src, axis=axis, out=work)
    return np.fft.irfft(src, n=2 * (spec.shape[-1] - 1), axis=-1, out=out)


def quadratic_norms(u: Field) -> tuple:
    """(mass, grad, bilap) of a field; the p-independent part of :func:`norms`."""
    g = u.grid
    mass = g.cell_volume * float(np.sum(u.samples * u.samples))
    k2, k4, weight = _spectral_tables(g)
    spec = _rfftn(u.samples, g.dim)
    power = weight * (spec.real**2 + spec.imag**2)
    scale = g.cell_volume / g.size
    grad = scale * float(np.sum(k2 * power))
    bilap = scale * float(np.sum(k4 * power))
    return mass, grad, bilap


def norms(u: Field, p: float) -> NormTuple:
    """All four norms of a field at exponent p > 2.

    mass and lp are physical-space quadrature; grad and bilap are spectral
    sums with the |k|^2 and |k|^4 multipliers.
    """
    if not p > 2:
        raise ValueError(f"norms requires p > 2, got {p}")
    mass, grad, bilap = quadratic_norms(u)
    lp = u.grid.cell_volume * float(np.sum(np.abs(u.samples) ** p))
    return NormTuple(mass=mass, grad=grad, bilap=bilap, lp=lp, p=float(p))


def spectral_mass(u: Field) -> float:
    """||u||_2^2 evaluated on the Fourier side; equals the quadrature mass."""
    g = u.grid
    _, _, weight = _spectral_tables(g)
    spec = _rfftn(u.samples, g.dim)
    return g.cell_volume / g.size * float(np.sum(weight * (spec.real**2 + spec.imag**2)))


def _apply_symbol(u: Field, symbol: np.ndarray) -> Field:
    spec = _rfftn(u.samples, u.grid.dim)
    spec *= symbol
    return Field(u.grid, _irfftn(spec, u.grid.dim))


def laplacian(u: Field) -> Field:
    k2, _, _ = _spectral_tables(u.grid)
    return _apply_symbol(u, -k2)


def bilaplacian(u: Field) -> Field:
    _, k4, _ = _spectral_tables(u.grid)
    return _apply_symbol(u, k4)


def forward_operator(u: Field, a: float, b: float, w: float) -> Field:
    """(a*lap^2 - b*lap + w) u as a diagonal Fourier multiplier."""
    k2, _, _ = _spectral_tables(u.grid)
    return _apply_symbol(u, a * k2 * k2 + b * k2 + w)


def inverse_operator(u: Field, a: float, b: float, w: float) -> Field:
    """Solve (a*lap^2 - b*lap + w) v = u exactly in Fourier space.

    Requires w > 0 so the symbol a|k|^4 + b|k|^2 + w is bounded below by w.
    """
    if a < 0 or b < 0:
        raise ValueError(f"operator coefficients must be nonnegative, got a={a}, b={b}")
    if not w > 0:
        raise SingularOperatorError(f"zero-order coefficient must be positive, got w={w}")
    k2, _, _ = _spectral_tables(u.grid)
    return _apply_symbol(u, 1.0 / (a * k2 * k2 + b * k2 + w))


def shift_field(u: Field, shifts) -> Field:
    """Periodic translation: returns w with w(x) = u(x + s), s real per axis.

    Implemented as spectral phase factors, so fractional-cell shifts are exact
    for band-limited content.  The Nyquist mode gets the real (cosine) factor
    to keep the output real-symmetric.
    """
    g = u.grid
    m = g.points_per_axis
    spec = _rfftn(u.samples, g.dim)
    shifts = np.atleast_1d(np.asarray(shifts, dtype=np.float64))
    if shifts.size != g.dim:
        raise ValueError(f"need {g.dim} shift components, got {shifts.size}")
    for axis, s in enumerate(shifts):
        if s == 0.0:
            continue
        if axis == g.dim - 1:
            k = 2.0 * np.pi * np.fft.rfftfreq(m, d=g.spacing)
        else:
            k = 2.0 * np.pi * np.fft.fftfreq(m, d=g.spacing)
        phase = np.exp(1j * k * s)
        nyq = k.size - 1 if axis == g.dim - 1 else m // 2
        phase[nyq] = np.cos(k[nyq] * s)
        spec = spec * phase.reshape((1,) * axis + (-1,) + (1,) * (g.dim - 1 - axis))
    return Field(g, _irfftn(spec, g.dim))


def mass_centroid_indices(u: Field) -> np.ndarray:
    """Circular-mean centroid of |u|^2, in fractional grid-index units per axis.

    The circular mean is exactly equivariant under integer-cell rolls, which
    is what makes :func:`center_and_align` shift-invariant.
    """
    w = u.samples * u.samples
    if not w.any():
        raise InvalidFieldError("centroid of the zero field is undefined")
    m = u.grid.points_per_axis
    theta = 2.0 * np.pi * np.arange(m) / m
    out = np.empty(u.grid.dim)
    for axis in range(u.grid.dim):
        other = tuple(i for i in range(u.grid.dim) if i != axis)
        marg = w.sum(axis=other) if other else w
        phi = np.arctan2(float(marg @ np.sin(theta)), float(marg @ np.cos(theta)))
        out[axis] = (m * phi / (2.0 * np.pi)) % m
    return out


def center_and_align(u: Field) -> Field:
    """Translate u so its |u|^2 centroid sits at the box center, value there >= 0.

    Canonical representative modulo the translation and sign symmetries; use
    it before comparing two states.
    """
    g = u.grid
    idx = mass_centroid_indices(u)
    shifts = (idx - g.points_per_axis // 2) * g.spacing
    out = shift_field(u, shifts)
    center = (g.points_per_axis // 2,) * g.dim
    if out.samples[center] < 0:
        out = Field(g, -out.samples)
    return out


def boundary_amplitude_ratio(u) -> float:
    """max |u| over the box faces divided by max |u| overall (0 for the zero field).

    Takes a Field or a bare samples array, which iteration loops pass uncopied.
    """
    samples = u.samples if isinstance(u, Field) else u
    peak = max(float(np.max(samples)), -float(np.min(samples)))  # max |u|, with no |u| array
    if peak == 0.0:
        return 0.0
    edge = 0.0
    for axis in range(samples.ndim):
        for index in (0, -1):
            edge = max(edge, float(np.max(np.abs(np.take(samples, index, axis=axis)))))
    return edge / peak


def spectral_tail_ratio(u: Field) -> float:
    """max |u_hat| over |k| > 0.9 k_max divided by max |u_hat| (0 for the zero field).

    The grid's counterpart of :func:`boundary_amplitude_ratio`: the Fourier
    coefficients of a resolved field decay to roundoff before the Nyquist.
    """
    k2, _, _ = _spectral_tables(u.grid)
    amplitude = np.abs(_rfftn(u.samples, u.grid.dim))
    peak = float(np.max(amplitude))
    if peak == 0.0:
        return 0.0
    return float(np.max(amplitude[k2 > (0.9 * u.grid.k_max()) ** 2])) / peak


def check_box_adequacy(u: Field, warn_ratio: float = BOUNDARY_WARN_RATIO) -> float:
    """Warn when the field does not decay into the box boundary; returns the ratio."""
    ratio = boundary_amplitude_ratio(u)
    if ratio > warn_ratio:
        warnings.warn(
            f"boundary amplitude is {ratio:.2e} of the peak (threshold {warn_ratio:.0e}); "
            "the box may be too small for this state",
            BoxAdequacyWarning,
            stacklevel=2,
        )
    return ratio


def regrid(u: Field, target: BoxGrid) -> Field:
    """Evaluate the periodic trigonometric interpolant of u on another grid.

    Exact (to roundoff) for band-limited content when the target resolves it;
    onto u's own grid, where the interpolant reproduces the samples, u itself
    is returned.  Target coordinates are taken modulo the source box, so
    enlarging the box wraps the (negligible) tails of a decaying field.
    """
    if target.dim != u.grid.dim:
        raise ValueError("regrid requires matching dimensions")
    if target == u.grid:
        return u
    g = u.grid
    m = g.points_per_axis
    k = 2.0 * np.pi * np.fft.fftfreq(m, d=g.spacing)
    x = target.axis_coordinates() + u.grid.box_length / 2.0
    out = np.fft.fftn(u.samples) / g.size
    for axis in range(g.dim):
        src = np.ascontiguousarray(np.moveaxis(out, axis, 0))
        out = np.empty((x.size,) + src.shape[1:], dtype=complex)
        for lo in range(0, x.size, REGRID_BLOCK):
            xb = x[lo : lo + REGRID_BLOCK]
            basis = np.exp(1j * np.outer(xb, k))
            basis[:, m // 2] = np.cos(k[m // 2] * xb)
            out[lo : lo + REGRID_BLOCK] = np.tensordot(basis, src, axes=1)
        out = np.moveaxis(out, 0, axis)
    return Field(target, out.real)


def relative_l2_distance(a: Field, b: Field) -> float:
    """||a - b||_2 / max(||a||_2, ||b||_2) on a shared grid."""
    if a.grid != b.grid:
        raise ValueError("fields must share a grid; regrid first")
    diff = a.samples - b.samples
    denom = max(
        float(np.sqrt(np.sum(a.samples**2))), float(np.sqrt(np.sum(b.samples**2)))
    )
    if denom == 0.0:
        return 0.0
    return float(np.sqrt(np.sum(diff**2))) / denom
