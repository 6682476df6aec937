"""Uniform periodic grids, spectral operators, and the norms behind every functional.

The box [-L/2, L/2)^d is the computational stand-in for all of R^d: fields of
interest decay fast enough that the periodic wrap is negligible, and a solve
records a warning when it is not (see :func:`boundary_amplitude_ratio`).

Transform conventions: the forward real FFT is unnormalized and the inverse
carries the 1/M^d factor (numpy's default "backward" norm).  Physical-space
sums are weighted by the cell volume h^d, so Parseval reads

    h^d * sum(u**2) == (h^d / M^d) * sum(w * |rfftn(u)|**2)

where w doubles the interior modes of the half-spectrum axis.  Every
quadratic norm is such a spectral sum, computed by :func:`_parseval_sums`,
all three at once: the mass, and the derivative seminorms weighted by |k|^2
and |k|^4, with the full symmetric wavenumber (including Nyquist) entering
the even symbols.  The iteration kernel's inner product of two spectra,
``solvers._SpectralIterate.inner``, is the same sum with no |k| weight.
Only ||u||_p^p is a physical-space sum.

Every real transform runs through one pair, :func:`_rfftn` and :func:`_irfftn`.
They do numpy's n-dimensional real transforms as one-axis passes written in
place: the forward pass is one ``rfft`` on the last axis into the output
array, then a complex ``fft`` over each other axis in that same array; the
inverse copies the spectrum once into a caller-supplied work array, runs
every complex ``ifft`` pass in place there (a pass from one array into
another walks both with strides, and costs about twice as much on 64³) and
ends with one ``irfft`` into the output.  The passes are the ones
``numpy.fft.rfftn``/``irfftn`` run, in the same order, so the results are
bit-equal to theirs, but no pass allocates an intermediate array.  An
iteration that hands in its own output and work arrays therefore transforms
without fresh memory: large temporaries go back to the operating system when
freed, so allocating them anew each sweep pays page faults on every page,
which cost more than the arithmetic on 3D grids.  The ``out=`` argument of
``numpy.fft`` needs numpy 2.0, and ``np.reshape(..., copy=False)`` numpy 2.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidFieldError

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

    def wavenumbers(self, half: bool = False) -> np.ndarray:
        """Angular wavenumbers 2*pi*wrap(m)/L along one full-spectrum axis, or
        along the half-spectrum (last, rfft) axis when ``half``."""
        freq = np.fft.rfftfreq if half else np.fft.fftfreq
        return 2.0 * np.pi * freq(self.points_per_axis, d=self.spacing)

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


@lru_cache(maxsize=64)
def _k2_table(grid: BoxGrid):
    """Cached |k|^2 array on the rfftn spectrum layout."""
    axes = [grid.wavenumbers()] * (grid.dim - 1) + [grid.wavenumbers(half=True)]
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    k2 = np.zeros(np.broadcast_shapes(*(k.shape for k in mesh)))
    for k in mesh:
        k2 += k * k
    k2.setflags(write=False)
    return k2


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
    ``numpy.fft.irfftn(spec, s, axes=range(-dim, 0))``.

    When dim > 1, spec is copied once into ``work`` (spec's shape and dtype;
    fresh when omitted) and every complex pass runs in place there; spec is
    left unchanged unless ``work`` is spec itself, which the passes then
    overwrite.  ``out``, when given, receives the real result.
    """
    n = 2 * (spec.shape[-1] - 1)
    if dim == 1:
        return np.fft.irfft(spec, n=n, axis=-1, out=out)
    if work is None:
        work = spec.copy()
    elif work is not spec:
        np.copyto(work, spec)
    for axis in range(-dim, -1):
        np.fft.ifft(work, axis=axis, out=work)
    return np.fft.irfft(work, n=n, axis=-1, out=out)


def _parseval_sums(
    grid: BoxGrid, spec: np.ndarray, power=None, keepdims=False, other=None, scratch=None,
):
    """The Parseval sums (mass, grad, bilap) of the rfftn spectrum ``spec``, or, given
    the spectrum ``other``, the same sums of Re(spec conj(other)): the cross terms
    (u, w), (grad u, grad w) and (lap u, lap w) of the two fields.

    Forms weight * |spec|^2 (or weight * Re(spec conj(other)), from the
    products of the two spectra's real and imaginary parts in ``scratch``, a
    float array of spec's shape with its last axis doubled) and sums it,
    times h^d / M^d, over the last ``grid.dim`` axes; then multiplies it by
    |k|^2 in place and sums again, twice, for the |k|^2 and |k|^4 sums.
    ``power``, a real array of spec's shape, holds it all; both are fresh
    when omitted.  ``keepdims`` keeps the summed axes, as a batch
    broadcasting on spec needs.
    """
    k2 = _k2_table(grid)
    if other is None:
        power = np.abs(spec, out=power)  # weight * |spec|^2, in one array
        power *= power
    else:
        # the products of the interleaved real and imaginary parts, summed in pairs
        prod = np.multiply(spec.view(np.float64), other.view(np.float64), out=scratch)
        power = np.add(prod[..., 0::2], prod[..., 1::2], out=power)
    # Half-spectrum double counting: interior modes of the last axis stand for
    # a conjugate pair; m=0 and Nyquist do not.  (Scalar factors of 2, so exact.)
    power *= 2.0
    power[..., 0] *= 0.5
    power[..., -1] *= 0.5
    axes = tuple(range(-grid.dim, 0))
    scale = grid.cell_volume / grid.size
    sums = [scale * np.sum(power, axis=axes, keepdims=keepdims)]
    for _ in range(2):
        power *= k2
        sums.append(scale * np.sum(power, axis=axes, keepdims=keepdims))
    return tuple(sums)


def norm_sums(grid: BoxGrid, samples: np.ndarray, exponents=(), spec=None) -> tuple:
    """(mass, grad, bilap, *power sums) over the last ``grid.dim`` axes of samples.

    ``samples`` is one field's array or a (rows, *grid.shape) block; each
    entry is then a 0-d or a per-row array.  mass, grad and bilap are the
    :func:`_parseval_sums` of the spectrum (pass it as ``spec`` when it is at
    hand); the power sums h^d sum |u|^q, one per q in ``exponents``, are
    physical-space quadrature.  A row's sums are bit-equal to those of its
    field alone.
    """
    if spec is None:
        spec = _rfftn(samples, grid.dim)
    sums = list(_parseval_sums(grid, spec))
    if exponents:
        axes = tuple(range(-grid.dim, 0))
        mag = np.empty_like(samples)
        for q in exponents:
            np.abs(samples, out=mag)
            mag **= q  # the same power path as |u| ** q
            sums.append(grid.cell_volume * np.sum(mag, axis=axes))
    return tuple(sums)


def quadratic_norms(u: Field) -> tuple:
    """(mass, grad, bilap) of a field; the p-independent part of :func:`norms`."""
    return tuple(float(s) for s in norm_sums(u.grid, u.samples))


def norms(u: Field, p: float, spec: np.ndarray | None = None) -> NormTuple:
    """All four norms of a field at exponent p > 2 (see :func:`norm_sums`); ``spec``
    is the field's rfftn spectrum, when it is at hand."""
    if not p > 2:
        raise ValueError(f"norms requires p > 2, got {p}")
    mass, grad, bilap, lp = (float(s) for s in norm_sums(u.grid, u.samples, (p,), spec))
    return NormTuple(mass=mass, grad=grad, bilap=bilap, lp=lp, p=float(p))


def _apply_symbol(u: Field, symbol: np.ndarray) -> Field:
    spec = _rfftn(u.samples, u.grid.dim)
    spec *= symbol
    return Field(u.grid, _irfftn(spec, u.grid.dim))


def laplacian(u: Field) -> Field:
    k2 = _k2_table(u.grid)
    return _apply_symbol(u, -k2)


def bilaplacian(u: Field) -> Field:
    k2 = _k2_table(u.grid)
    return _apply_symbol(u, k2 * k2)


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
        k = g.wavenumbers(half=axis == g.dim - 1)
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


def spectral_tail_ratio(u: Field, spec: np.ndarray | None = None) -> float:
    """max |u_hat| over |k| > 0.9 k_max divided by max |u_hat| (0 for the zero field).

    The grid's counterpart of :func:`boundary_amplitude_ratio`: the Fourier
    coefficients of a resolved field decay to roundoff before the Nyquist.
    ``spec`` is the field's rfftn spectrum, when it is at hand.
    """
    k2 = _k2_table(u.grid)
    amplitude = np.abs(_rfftn(u.samples, u.grid.dim) if spec is None else spec)
    peak = float(np.max(amplitude))
    if peak == 0.0:
        return 0.0
    return float(np.max(amplitude[k2 > (0.9 * u.grid.k_max()) ** 2])) / peak


def _chirp(q: np.ndarray, ratio: float) -> np.ndarray:
    """exp(i pi q ratio) for integers q, |q| < 2**29: z^(q/2) with z = exp(2 pi i ratio).

    q * ratio runs to thousands of half turns on a long axis, so it is taken
    modulo 2 before it is rounded: ratio splits (Veltkamp) into a 24-bit head,
    whose product with q is exact, and a tail, whose product is small.  The
    phases then carry only ratio's own rounding.
    """
    scaled = ratio * 536870913.0  # 2**29 + 1
    head = scaled - (scaled - ratio)
    q = np.asarray(q, dtype=np.float64)
    return np.exp(1j * np.pi * (np.fmod(q * head, 2.0) + q * (ratio - head)))


def regrid(u: Field, target: BoxGrid) -> Field:
    """Evaluate the periodic trigonometric interpolant of u on another grid.

    Exact (to roundoff) for band-limited content when the target resolves it;
    onto u's own grid, where the interpolant reproduces the samples, u itself
    is returned.  Target coordinates are taken modulo the source box, so
    enlarging the box wraps the (negligible) tails of a decaying field.

    Each axis is one chirp-z (Bluestein) pass.  Both boxes are centred on 0,
    so with the source frequencies f = -M/2..M/2-1, the targets x_j = j h_t,
    j = -M_t/2..M_t/2-1, and z = exp(2 pi i h_t / L) on the source box L,
    the interpolant is
    sum_f c_f (-1)^f z^(f j).  As f j = (f^2 + j^2 - (j - f)^2) / 2, that is
    z^(j^2/2) times the convolution of c_f (-1)^f z^(f^2/2) with z^(-n^2/2),
    done circularly by FFTs of the next power of two >= M + M_t - 1 points:
    O(M log M) per axis line instead of a dense basis's O(M M_t).  The
    Nyquist term enters as its cosine, which keeps the result real.
    """
    if target.dim != u.grid.dim:
        raise ValueError("regrid requires matching dimensions")
    if target == u.grid:
        return u
    g = u.grid
    m, mt = g.points_per_axis, target.points_per_axis
    ratio = target.spacing / g.box_length
    size = 1 << (m + mt - 2).bit_length()  # the power of two >= m + mt - 1
    f = np.arange(m) - m // 2
    j = np.arange(mt) - mt // 2
    lag = np.arange(1 - m, mt)  # target index minus source index
    pre = _chirp(f * f, ratio)
    pre[1::2] *= -1.0  # (-1)^f, as f and its index differ by M/2, which is even
    pre[0] = 0.0  # the Nyquist term, added back as its cosine
    kernel = np.zeros(size, dtype=complex)
    kernel[lag] = _chirp(-((lag - mt // 2 + m // 2) ** 2), ratio)  # negative lags wrap
    kernel = np.fft.fft(kernel)
    post = _chirp(j * j, ratio)
    nyquist = _chirp(m * j, ratio).real  # cos(k_nyq x_j)
    spec = np.fft.fftshift(np.fft.fftn(u.samples) / g.size)
    for axis in range(g.dim):
        src = np.moveaxis(spec, axis, -1)
        line = np.zeros(src.shape[:-1] + (size,), dtype=complex)
        np.multiply(src, pre, out=line[..., :m])
        np.fft.fft(line, axis=-1, out=line)
        line *= kernel
        np.fft.ifft(line, axis=-1, out=line)
        out = line[..., :mt] * post
        out += src[..., :1] * nyquist
        spec = np.moveaxis(out, -1, axis)
    return Field(target, spec.real)


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
